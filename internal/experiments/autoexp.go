package experiments

import (
	"fmt"

	"repro/internal/backend"
	"repro/internal/circuit"
	"repro/internal/qft"
	"repro/internal/recognize"
	"repro/internal/statevec"
)

// The auto experiment measures the profile-driven backend selector
// against hand-picked configurations: for each workload it times the
// auto-chosen target next to every manual candidate a user would
// plausibly pick and reports auto, best-manual and worst-manual. The
// selection property tests pin the contract (auto within 15% of best,
// strictly ahead of worst).

// AutoRow is one workload of the auto-vs-manual sweep.
type AutoRow struct {
	Name   string
	Qubits uint
	// Chosen describes the target the selector picked; Best and Worst
	// name the fastest and slowest manual candidates.
	Chosen, Best, Worst  string
	TAuto, TBest, TWorst float64
	// VsBest is TAuto/TBest: 1.0 means auto matched the best hand-picked
	// configuration exactly.
	VsBest float64
}

// AutoConfig bounds the auto-selection sweep.
type AutoConfig struct {
	QFTQubits  uint // register width of the QFT workload
	TileQubits uint // register width of the dense-tile workload
	TileReps   int  // tile repetitions (depth of the dense workload)
}

// DefaultAuto sizes the sweep so engine differences dominate noise.
func DefaultAuto() AutoConfig { return AutoConfig{QFTQubits: 18, TileQubits: 14, TileReps: 3} }

// QuickAuto is the CI-budget variant.
func QuickAuto() AutoConfig { return AutoConfig{QFTQubits: 16, TileQubits: 12, TileReps: 3} }

// autoManualCandidates is the hand-picked field of engine shapes the
// selector runs against: the default simulator, both common block-fusion
// widths, and emulation dispatch at the paper's usual width. The
// structure-blind baseline joins the field as a raw-kernel loop
// (autoWorkload).
func autoManualCandidates(n uint) []struct {
	name string
	t    backend.Target
} {
	return []struct {
		name string
		t    backend.Target
	}{
		{"fused-w1", backend.Target{NumQubits: n, Kind: backend.Fused}},
		{"fused-w4", backend.Target{NumQubits: n, Kind: backend.Fused, FuseWidth: 4}},
		{"fused-w8", backend.Target{NumQubits: n, Kind: backend.Fused, FuseWidth: 8}},
		{"emulate-w4", backend.Target{NumQubits: n, Kind: backend.Fused, FuseWidth: 4,
			Emulate: recognize.Auto}},
	}
}

// autoWorkload times the auto target and every manual candidate on one
// circuit.
func autoWorkload(name string, c *circuit.Circuit) AutoRow {
	n := c.NumQubits
	row := AutoRow{Name: name, Qubits: n}

	var res *backend.Result
	row.TAuto, res = timeTarget(c, backend.Target{NumQubits: n, Auto: true}, nil)
	if res.Selection != nil {
		row.Chosen = backend.DescribeTarget(res.Selection.Chosen)
	}

	manual := func(name string, sec float64) {
		if row.TBest == 0 || sec < row.TBest {
			row.TBest, row.Best = sec, name
		}
		if sec > row.TWorst {
			row.TWorst, row.Worst = sec, name
		}
	}
	for _, cand := range autoManualCandidates(n) {
		sec, _ := timeTarget(c, cand.t, nil)
		manual(cand.name, sec)
	}
	manual("generic", timeGates(c, statevec.New(n), (*statevec.State).ApplyGateGeneric))
	row.VsBest = row.TAuto / row.TBest
	return row
}

// autoWorkloads is the sweep's circuits: a QFT workload (emulation should
// win) and a dense-tile ansatz (block fusion should win).
func autoWorkloads(cfg AutoConfig) []CompileWorkload {
	return []CompileWorkload{
		{fmt.Sprintf("qft-noswap-n%d", cfg.QFTQubits), qft.CircuitNoSwap(cfg.QFTQubits)},
		{fmt.Sprintf("tiled-n%d", cfg.TileQubits), TiledAnsatz(cfg.TileQubits, 4, cfg.TileReps, 1, 5)},
	}
}

// Auto runs the auto-vs-manual sweep over autoWorkloads.
func Auto(cfg AutoConfig) []AutoRow {
	var rows []AutoRow
	for _, w := range autoWorkloads(cfg) {
		rows = append(rows, autoWorkload(w.Name, w.Circuit))
	}
	return rows
}

// FormatAuto renders the auto-vs-manual sweep.
func FormatAuto(rows []AutoRow) string {
	var table [][]string
	for _, r := range rows {
		table = append(table, []string{
			r.Name,
			fmt.Sprintf("%d", r.Qubits),
			r.Chosen,
			secs(r.TAuto),
			fmt.Sprintf("%s (%s)", secs(r.TBest), r.Best),
			fmt.Sprintf("%s (%s)", secs(r.TWorst), r.Worst),
			fmt.Sprintf("%.2fx", r.VsBest),
		})
	}
	return "Auto backend: profile-driven selection vs hand-picked targets\n" +
		Table([]string{"circuit", "qubits", "chosen", "t_auto", "t_best_manual", "t_worst_manual", "vs best"}, table)
}
