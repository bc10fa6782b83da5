package experiments

import (
	"fmt"

	"repro/internal/backend"
	"repro/internal/circuit"
	"repro/internal/cluster"
	"repro/internal/perfmodel"
	"repro/internal/qft"
	"repro/internal/recognize"
	"repro/internal/rng"
	"repro/internal/statevec"
)

// WeakScalingRow is one point of Figure 3 or Figure 4: a QFT on n qubits
// across p emulated nodes with 2^L amplitudes per node.
type WeakScalingRow struct {
	Qubits    uint
	Nodes     int
	TSim      float64 // gate-level QFT on the cluster
	TEmu      float64 // distributed four-step FFT (Fig. 3) or baseline sim (Fig. 4)
	Speedup   float64
	SimBytes  uint64  // bytes communicated by the first configuration
	EmuBytes  uint64  // bytes communicated by the second configuration
	ModelTSim float64 // Eq. 6 at paper scale (28 + log2 p qubits)
	ModelTEmu float64 // Eq. 5 at paper scale
}

// WeakScalingConfig fixes the scaled-down weak-scaling line: per-node
// qubits L (the paper uses 28; memory forces a smaller local size here)
// and the largest node count.
type WeakScalingConfig struct {
	LocalQubits uint
	MaxNodes    int
}

// DefaultWeakScaling uses 2^16 amplitudes per node up to 64 nodes.
func DefaultWeakScaling() WeakScalingConfig {
	return WeakScalingConfig{LocalQubits: 16, MaxNodes: 64}
}

// clusterTarget is the distributed engine as served: p emulated nodes,
// the communication-avoiding scheduler planning at oursWidth.
func clusterTarget(n uint, p int, mode recognize.Mode) backend.Target {
	return backend.Target{NumQubits: n, Kind: backend.Cluster, Nodes: p,
		FuseWidth: oursWidth, Emulate: mode}
}

// Fig3 runs the QFT-simulation vs FFT-emulation weak scaling (paper
// Figure 3) on the emulated cluster — the same circuit compiled with
// emulation off (scheduled gate engine) and on (the recognised QFT lowers
// to the four-step distributed FFT) — and attaches the Eq. 5/6 model
// predictions at the paper's 28..36-qubit scale.
func Fig3(cfg WeakScalingConfig) []WeakScalingRow {
	machine := perfmodel.Stampede()
	src := rng.New(1234)
	var rows []WeakScalingRow
	for p := 1; p <= cfg.MaxNodes; p *= 2 {
		n := cfg.LocalQubits + uint(log2(p))
		circ := qft.CircuitNoSwap(n)
		init := statevec.NewRandom(n, src)

		row := WeakScalingRow{Qubits: n, Nodes: p}
		var res *backend.Result
		row.TSim, res = timeTarget(circ, clusterTarget(n, p, recognize.Off), init)
		row.SimBytes = res.Comm.BytesSent
		row.TEmu, res = timeTarget(circ, clusterTarget(n, p, recognize.Auto), init)
		row.EmuBytes = res.Comm.BytesSent
		row.Speedup = row.TSim / row.TEmu
		paperN := uint(28 + log2(p))
		row.ModelTSim = machine.TQFT(paperN, p)
		row.ModelTEmu = machine.TFFT(paperN, p)
		rows = append(rows, row)
	}
	return rows
}

// Fig4 compares our communication-avoiding distributed simulator against
// the qHiPSTER-class configuration — the naive per-gate cluster engine
// exchanging for every node-qubit gate, diagonal ones included, a raw
// baseline outside Compile — on the same weak-scaling QFT (paper Figure
// 4). TSim is ours, TEmu the baseline; Speedup = baseline/ours.
func Fig4(cfg WeakScalingConfig) []WeakScalingRow {
	src := rng.New(4321)
	var rows []WeakScalingRow
	for p := 1; p <= cfg.MaxNodes; p *= 2 {
		n := cfg.LocalQubits + uint(log2(p))
		circ := qft.CircuitNoSwap(n)
		init := statevec.NewRandom(n, src)

		row := WeakScalingRow{Qubits: n, Nodes: p}
		var res *backend.Result
		row.TSim, res = timeTarget(circ, clusterTarget(n, p, recognize.Off), init)
		row.SimBytes = res.Comm.BytesSent

		var c *cluster.Cluster
		row.TEmu = timeIt(shortTime, func() {
			c = loadedCluster(init, p)
			c.DiagonalOptimization = false
		}, func() { c.Run(circ) })
		row.EmuBytes = c.Stats.BytesSent.Load()
		row.Speedup = row.TEmu / row.TSim
		rows = append(rows, row)
	}
	return rows
}

// loadedCluster returns a fresh p-node machine holding init — the setup of
// the naive-engine baselines, which run outside backend.Compile.
func loadedCluster(init *statevec.State, p int) *cluster.Cluster {
	c, err := cluster.New(init.NumQubits(), p)
	if err != nil {
		panic(err)
	}
	if err := c.LoadState(init); err != nil {
		panic(err)
	}
	return c
}

// FormatFig3 renders the Figure 3 table.
func FormatFig3(rows []WeakScalingRow) string {
	var table [][]string
	for _, r := range rows {
		table = append(table, []string{
			fmt.Sprintf("%d", r.Qubits),
			fmt.Sprintf("%d", r.Nodes),
			secs(r.TSim),
			secs(r.TEmu),
			fmt.Sprintf("%.1fx", r.Speedup),
			fmt.Sprintf("%d / %d MB", r.SimBytes>>20, r.EmuBytes>>20),
			fmt.Sprintf("%.1fx", r.ModelTSim/r.ModelTEmu),
		})
	}
	return fmt.Sprintf("Figure 3: QFT simulation vs FFT emulation, weak scaling (scaled down; cluster engine, w=%d)\n", oursWidth) +
		Table([]string{"qubits", "nodes", "t_QFTsim", "t_FFTemu", "speedup",
			"comm sim/emu", "model speedup @28+log2(p)q"}, table)
}

// FormatFig4 renders the Figure 4 table.
func FormatFig4(rows []WeakScalingRow) string {
	var table [][]string
	for _, r := range rows {
		table = append(table, []string{
			fmt.Sprintf("%d", r.Qubits),
			fmt.Sprintf("%d", r.Nodes),
			secs(r.TSim),
			secs(r.TEmu),
			fmt.Sprintf("%.2fx", r.Speedup),
			fmt.Sprintf("%d / %d MB", r.SimBytes>>20, r.EmuBytes>>20),
		})
	}
	return fmt.Sprintf("Figure 4: our simulator (scheduled cluster engine, w=%d) vs qHiPSTER-class per-gate baseline, distributed QFT\n", oursWidth) +
		Table([]string{"qubits", "nodes", "t_ours", "t_baseline", "speedup",
			"comm ours/baseline"}, table)
}

// SingleNodeRow is one point of Figure 5 or 6: the three back-ends on one
// workload.
type SingleNodeRow struct {
	Qubits   uint
	TOurs    float64
	TGeneric float64 // qHiPSTER-class
	TSparse  float64 // LIQUi|>-class
}

// SingleNodeConfig bounds the sweep.
type SingleNodeConfig struct {
	MinQubits, MaxQubits uint
	// SparseMax caps the sparse-matrix baseline separately (it is the
	// slowest by far); 0 means MaxQubits.
	SparseMax uint
}

// DefaultFig5 covers 15..20 qubits (the paper uses 18..22; one process
// with a pure-Go CSR build tops out a little earlier in reasonable time).
func DefaultFig5() SingleNodeConfig { return SingleNodeConfig{MinQubits: 15, MaxQubits: 20} }

// DefaultFig6 covers the paper's 15..22 range.
func DefaultFig6() SingleNodeConfig { return SingleNodeConfig{MinQubits: 15, MaxQubits: 22} }

// Fig5 runs the single-node QFT comparison (paper Figure 5).
func Fig5(cfg SingleNodeConfig) []SingleNodeRow {
	return singleNode(cfg, qft.Circuit)
}

// Fig6 runs the entangling-operation comparison (paper Figure 6).
func Fig6(cfg SingleNodeConfig) []SingleNodeRow {
	return singleNode(cfg, qft.Entangler)
}

func singleNode(cfg SingleNodeConfig, build func(n uint) *circuit.Circuit) []SingleNodeRow {
	sparseMax := cfg.SparseMax
	if sparseMax == 0 {
		sparseMax = cfg.MaxQubits
	}
	src := rng.New(99)
	var rows []SingleNodeRow
	for n := cfg.MinQubits; n <= cfg.MaxQubits; n++ {
		circ := build(n)
		init := statevec.NewRandom(n, src)
		row := SingleNodeRow{Qubits: n}

		row.TOurs, _ = timeTarget(circ, oursTarget(n), init)
		row.TGeneric, _ = timeTarget(circ, backend.Target{NumQubits: n, Kind: backend.Generic}, init)
		if n <= sparseMax {
			row.TSparse, _ = timeTarget(circ, backend.Target{NumQubits: n, Kind: backend.Sparse}, init)
		}
		rows = append(rows, row)
	}
	return rows
}

// FormatSingleNode renders Figure 5/6 rows.
func FormatSingleNode(title string, rows []SingleNodeRow) string {
	var table [][]string
	for _, r := range rows {
		sparse, spS := "-", "-"
		if r.TSparse > 0 {
			sparse = secs(r.TSparse)
			spS = fmt.Sprintf("%.1fx", r.TSparse/r.TOurs)
		}
		table = append(table, []string{
			fmt.Sprintf("%d", r.Qubits),
			secs(r.TOurs),
			secs(r.TGeneric),
			sparse,
			fmt.Sprintf("%.1fx", r.TGeneric/r.TOurs),
			spS,
		})
	}
	return title + "\n" + Table(
		[]string{"qubits", oursHeader("t_ours"), "t_qhipster", "t_liquid", "speedup vs qH", "speedup vs LIQUi"},
		table)
}

func log2(p int) int {
	l := 0
	for 1<<uint(l) < p {
		l++
	}
	return l
}
