package experiments

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"strings"

	"repro/internal/backend"
	"repro/internal/circuit"
	"repro/internal/qft"
	"repro/internal/recognize"
	"repro/internal/revlib"
	"repro/internal/rng"
	"repro/internal/statevec"
)

// EmulateRow is one workload of the emulation-dispatch sweep: the same
// computation through the best fused gate-level target versus the same
// engine with Target.Emulate on, which lowers recognised subroutines to
// the paper's Section 3 shortcuts.
type EmulateRow struct {
	Name   string
	Qubits uint
	// SimGates counts the gates the simulator executes; EmuGates the
	// gates of the structured circuit the dispatcher analyses (for the
	// arithmetic rows the simulator runs the hardware-level lowering of
	// the same unitary, so the counts differ).
	SimGates, EmuGates int
	// Recognized summarises what the emulating executable dispatched.
	Recognized string
	TSim       float64 // best fused gate-level path
	TEmu       float64 // emulation dispatch
	Speedup    float64
}

// EmulateConfig bounds the emulation-dispatch sweep.
type EmulateConfig struct {
	QFTQubits    []uint // register widths for the QFT rows
	MulBits      []uint // operand widths for the Shor-style multiply rows
	GroverQubits uint   // register width of the Grover row
	GroverIters  int
	FuseWidth    int // fusion width of the gate-level baseline
}

// DefaultEmulate reproduces the paper's simulator-vs-emulator comparison
// at sizes where the gap is unambiguous (20+ qubits) but a sweep still
// finishes in CI time.
func DefaultEmulate() EmulateConfig {
	return EmulateConfig{QFTQubits: []uint{16, 20}, MulBits: []uint{5, 7},
		GroverQubits: 20, GroverIters: 4, FuseWidth: 4}
}

// QuickEmulate keeps the 20+ qubit QFT and multiply rows (the headline
// comparison) and drops the smaller warm-up sizes.
func QuickEmulate() EmulateConfig {
	return EmulateConfig{QFTQubits: []uint{20}, MulBits: []uint{7},
		GroverQubits: 20, GroverIters: 4, FuseWidth: 4}
}

// emulateWorkload times one (simCircuit, emuCircuit) pair. The two
// circuits implement the same unitary; simCircuit is what a quantum
// computer would run (hardware gate set), emuCircuit the structured form
// the dispatcher analyses. The gate-level baseline is timed at every
// candidate fusion width and the best one is reported, so the comparison
// is against the best fused simulator path, not a convenient strawman.
func emulateWorkload(name string, simC, emuC *circuit.Circuit, widths []int) EmulateRow {
	n := simC.NumQubits
	row := EmulateRow{Name: name, Qubits: n, SimGates: simC.Len(), EmuGates: emuC.Len()}
	init := statevec.NewRandom(n, rng.New(4242))
	for _, w := range widths {
		t, _ := timeTarget(simC, backend.Target{NumQubits: n, Kind: backend.Fused, FuseWidth: w}, init)
		if row.TSim == 0 || t < row.TSim {
			row.TSim = t
		}
	}
	var res *backend.Result
	row.TEmu, res = timeTarget(emuC, backend.Target{NumQubits: n, Kind: backend.Fused,
		FuseWidth: widths[0], Emulate: recognize.Auto}, init)
	row.Recognized = recognised(res)
	row.Speedup = row.TSim / row.TEmu
	return row
}

// recognised is the sweep's last column: what the run replaced by
// shortcuts, by kind, and how many regions it returned to gate level.
func recognised(res *backend.Result) string {
	byKind := map[string]int{}
	for _, r := range res.Emulated {
		byKind[r.Kind]++
	}
	var kinds []string
	for _, k := range slices.Sorted(maps.Keys(byKind)) {
		kinds = append(kinds, fmt.Sprintf("%d %s", byKind[k], k))
	}
	s := fmt.Sprintf("%d/%d gates emulated via %d shortcuts (%s)",
		res.EmulatedGates, res.TotalGates, len(res.Emulated), cmp.Or(strings.Join(kinds, ", "), "none"))
	if len(res.Skipped) > 0 {
		s += fmt.Sprintf(", %d regions skipped", len(res.Skipped))
	}
	return s
}

// Emulate runs the emulation-dispatch sweep: QFT, Shor-style multiply and
// Grover oracle workloads through the best fused simulator path versus
// the recognition dispatcher.
func Emulate(cfg EmulateConfig) []EmulateRow {
	var rows []EmulateRow
	for _, n := range cfg.QFTQubits {
		// The Shor-style QFT (reversal absorbed into subsequent indexing,
		// as in the fig3/fig4 weak-scaling experiments). The fused
		// baseline is swept over both the standard width and width 8,
		// where pure-diagonal blocks absorb the controlled-phase tail —
		// the strongest gate-level configuration for this shape.
		c := qft.CircuitNoSwap(n)
		rows = append(rows, emulateWorkload(fmt.Sprintf("qft-noswap-n%d", n), c, c,
			[]int{cfg.FuseWidth, 8}))
	}
	for _, m := range cfg.MulBits {
		l := revlib.NewMultiplierLayout(m)
		emuC := revlib.BuildMultiplier(l)
		// The simulator executes the circuit a quantum computer would run:
		// lowered to one- and two-qubit gates (Fig. 1's setting). The
		// lowering also strips the structure the dispatcher feeds on,
		// which is exactly the point: emulation needs the subroutine
		// boundaries, simulation pays for their expansion. Width 4 is the
		// measured-best fusion for the lowered Toffoli networks (wider
		// dense blocks lose: 4.6s at w=4 vs 8.3s/15.1s at w=6/8 for m=7).
		simC := emuC.Lower(1)
		rows = append(rows, emulateWorkload(fmt.Sprintf("multiplier-m%d", m), simC, emuC,
			[]int{cfg.FuseWidth}))
	}
	if cfg.GroverQubits > 0 {
		c := GroverGateLevel(cfg.GroverQubits, 0b1011, cfg.GroverIters)
		rows = append(rows, emulateWorkload(fmt.Sprintf("grover-n%d", cfg.GroverQubits), c, c,
			[]int{cfg.FuseWidth}))
	}
	return rows
}

// FormatEmulate renders the emulation-dispatch sweep.
func FormatEmulate(rows []EmulateRow) string {
	var table [][]string
	for _, r := range rows {
		table = append(table, []string{
			r.Name,
			fmt.Sprintf("%d", r.Qubits),
			fmt.Sprintf("%d", r.SimGates),
			secs(r.TSim),
			secs(r.TEmu),
			fmt.Sprintf("%.1fx", r.Speedup),
			r.Recognized,
		})
	}
	return "Emulation dispatch: best fused simulator vs recognised shortcuts (Section 3)\n" +
		Table([]string{"circuit", "qubits", "sim gates", "t_sim", "t_emulate", "speedup", "recognised"}, table)
}
