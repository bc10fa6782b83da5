package experiments

import (
	"fmt"

	"repro/internal/backend"
	"repro/internal/circuit"
	"repro/internal/qft"
	"repro/internal/recognize"
	"repro/internal/revlib"
	"repro/internal/rng"
	"repro/internal/statevec"
)

// ClusterEmulateRow is one point of the distributed emulation-dispatch
// comparison: the same circuit on P emulated nodes through the gate-level
// communication-avoiding scheduler versus through emulation dispatch
// (recognised QFT regions as the four-step distributed FFT, arithmetic as
// one cluster-wide permutation).
type ClusterEmulateRow struct {
	Circuit string
	Qubits  uint
	Nodes   int
	Gates   int
	// TGate/TEmu are seconds per run of each configuration.
	TGate, TEmu float64
	// Per-run communication of each configuration.
	GateRounds, EmuRounds uint64
	GateBytes, EmuBytes   uint64
	// GateRemaps/EmuRemaps are the planned placement-remap rounds of each
	// executable's gate segments (the emulated path plans strictly fewer —
	// its regions skip the scheduler entirely).
	GateRemaps, EmuRemaps int
	Speedup               float64
}

// ClusterEmulateConfig bounds the sweep.
type ClusterEmulateConfig struct {
	// LocalQubits fixes the per-node shard size; each row's register is
	// LocalQubits + log2(nodes) wide (weak scaling, like Figs. 3-4).
	LocalQubits uint
	// MinNodes/MaxNodes bound the node-count sweep (powers of two).
	MinNodes, MaxNodes int
	// FuseWidth is the block-fusion width of the gate-level baseline (and
	// of the residual gate segments on the emulated side).
	FuseWidth int
}

// DefaultClusterEmulate sweeps 2..4 nodes with 2^14 amplitudes per node.
func DefaultClusterEmulate() ClusterEmulateConfig {
	return ClusterEmulateConfig{LocalQubits: 14, MinNodes: 2, MaxNodes: 4, FuseWidth: 4}
}

// ClusterEmulate runs the distributed emulation-dispatch comparison on the
// workloads the lowering substrates cover: the full QFT (four-step FFT),
// its noswap variant (FFT plus a zero-communication placement
// relabelling), and the shift-and-add multiplier (one cluster-wide
// permutation).
func ClusterEmulate(cfg ClusterEmulateConfig) []ClusterEmulateRow {
	if cfg.MinNodes < 2 {
		cfg.MinNodes = 2
	}
	src := rng.New(2025)
	var rows []ClusterEmulateRow
	for p := cfg.MinNodes; p <= cfg.MaxNodes; p *= 2 {
		n := cfg.LocalQubits + uint(log2(p))
		mulM := (n - 1) / 3
		mulLayout := revlib.NewMultiplierLayout(mulM)
		workloads := []struct {
			name string
			c    *circuit.Circuit
		}{
			{"qft", qft.Circuit(n)},
			{"qft-noswap", qft.CircuitNoSwap(n)},
			{fmt.Sprintf("multiplier-m%d", mulM), revlib.BuildMultiplier(mulLayout)},
		}
		for _, w := range workloads {
			nq := w.c.NumQubits
			gateT := backend.Target{NumQubits: nq, Kind: backend.Cluster,
				Nodes: p, FuseWidth: cfg.FuseWidth}
			emuT := gateT
			emuT.Emulate = recognize.Annotated

			row := ClusterEmulateRow{Circuit: w.name, Qubits: nq, Nodes: p, Gates: w.c.Len()}
			init := statevec.NewRandom(nq, src)
			var res *backend.Result
			row.TGate, res = timeTarget(w.c, gateT, init)
			row.GateRounds, row.GateBytes, row.GateRemaps = res.Comm.Rounds, res.Comm.BytesSent, res.PlannedRemaps
			row.TEmu, res = timeTarget(w.c, emuT, init)
			row.EmuRounds, row.EmuBytes, row.EmuRemaps = res.Comm.Rounds, res.Comm.BytesSent, res.PlannedRemaps

			if row.TEmu > 0 {
				row.Speedup = row.TGate / row.TEmu
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// FormatClusterEmulate renders the distributed emulation table.
func FormatClusterEmulate(rows []ClusterEmulateRow) string {
	var table [][]string
	for _, r := range rows {
		table = append(table, []string{
			r.Circuit,
			fmt.Sprintf("%d", r.Qubits),
			fmt.Sprintf("%d", r.Nodes),
			fmt.Sprintf("%d", r.Gates),
			secs(r.TGate),
			secs(r.TEmu),
			fmt.Sprintf("%d (%d remaps)", r.GateRounds, r.GateRemaps),
			fmt.Sprintf("%d (%d remaps)", r.EmuRounds, r.EmuRemaps),
			fmt.Sprintf("%d / %d MB", r.GateBytes>>20, r.EmuBytes>>20),
			fmt.Sprintf("%.1fx", r.Speedup),
		})
	}
	return "Cluster emulation: scheduled gate engine vs distributed emulation dispatch (four-step FFT, cluster-wide permutations)\n" +
		Table([]string{"circuit", "qubits", "nodes", "gates", "t_gate", "t_emulate",
			"rounds_gate", "rounds_emu", "comm gate/emu", "speedup"}, table)
}
