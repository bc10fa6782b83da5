package experiments

import (
	"fmt"

	"repro/internal/backend"
	"repro/internal/circuit"
	"repro/internal/cluster"
	"repro/internal/qft"
	"repro/internal/rng"
	"repro/internal/statevec"
)

// ClusterRow is one point of the distributed-engine comparison: a circuit
// on P emulated nodes, run through the naive per-gate engine (one
// communication round per remote-qubit gate — the Fig. 4 configuration)
// and through the communication-avoiding placement scheduler.
type ClusterRow struct {
	Circuit string
	Qubits  uint
	Nodes   int
	Gates   int
	// TNaive/TSched are seconds per run of each engine.
	TNaive, TSched float64
	// Rounds, AllToAlls and Bytes are the per-run communication counters
	// of each engine (rounds = BSP supersteps that used the network).
	NaiveRounds, SchedRounds uint64
	NaiveBytes, SchedBytes   uint64
	// Remaps/Exchanges decompose the scheduled engine's rounds.
	SchedRemaps, SchedExchanges int
}

// ClusterConfig bounds the distributed sweep.
type ClusterConfig struct {
	// LocalQubits fixes the per-node shard size; each row's register is
	// LocalQubits + log2(nodes) wide (weak scaling, like Figs. 3-4).
	LocalQubits uint
	// MinNodes/MaxNodes bound the node-count sweep (powers of two).
	MinNodes, MaxNodes int
	// FuseWidth is the block-fusion width the scheduled engine plans with.
	FuseWidth int
}

// DefaultCluster sweeps 2..8 nodes with 2^14 amplitudes per node.
func DefaultCluster() ClusterConfig {
	return ClusterConfig{LocalQubits: 14, MinNodes: 2, MaxNodes: 8, FuseWidth: 4}
}

// Cluster runs the distributed-engine comparison on the Fig-4-style
// workloads: the weak-scaling QFT plus the brickwork and random circuits
// whose remote-qubit gates recur enough for batching to pay.
func Cluster(cfg ClusterConfig) []ClusterRow {
	if cfg.MinNodes < 2 {
		cfg.MinNodes = 2
	}
	src := rng.New(2024)
	var rows []ClusterRow
	for p := cfg.MinNodes; p <= cfg.MaxNodes; p *= 2 {
		n := cfg.LocalQubits + uint(log2(p))
		workloads := []struct {
			name string
			c    *circuit.Circuit
		}{
			// The full Eq. 4 QFT including the reversal swaps — the
			// operation Figure 4 measures. The swaps land half their
			// CNOTs on node-selecting qubits, which the naive engine
			// pays per gate and the scheduler folds into its remaps.
			{"qft", qft.Circuit(n)},
			{"brickwork", Brickwork(n, 8, 42)},
			{"random", RandomCircuit(n, 400, 43)},
		}
		for _, w := range workloads {
			init := statevec.NewRandom(n, src)
			row := ClusterRow{Circuit: w.name, Qubits: n, Nodes: p, Gates: w.c.Len()}

			// The naive per-gate engine is the raw baseline, outside
			// Compile; the scheduled engine is the compiled cluster target.
			var c *cluster.Cluster
			row.TNaive = timeIt(shortTime, func() { c = loadedCluster(init, p) }, func() { c.Run(w.c) })
			row.NaiveRounds = c.Stats.Rounds.Load()
			row.NaiveBytes = c.Stats.BytesSent.Load()

			var res *backend.Result
			row.TSched, res = timeTarget(w.c, backend.Target{NumQubits: n, Kind: backend.Cluster,
				Nodes: p, FuseWidth: cfg.FuseWidth}, init)
			row.SchedRounds, row.SchedBytes = res.Comm.Rounds, res.Comm.BytesSent
			row.SchedRemaps = res.PlannedRemaps
			row.SchedExchanges = int(res.Comm.Rounds) - res.PlannedRemaps

			rows = append(rows, row)
		}
	}
	return rows
}

// FormatCluster renders the distributed-engine table: rounds and bytes
// moved alongside wall time, with the scheduled/naive ratios that are the
// reproduction target (strictly fewer rounds wherever remote gates
// recur).
func FormatCluster(rows []ClusterRow) string {
	var table [][]string
	for _, r := range rows {
		speedup := 0.0
		if r.TSched > 0 {
			speedup = r.TNaive / r.TSched
		}
		table = append(table, []string{
			r.Circuit,
			fmt.Sprintf("%d", r.Qubits),
			fmt.Sprintf("%d", r.Nodes),
			fmt.Sprintf("%d", r.Gates),
			secs(r.TNaive),
			secs(r.TSched),
			fmt.Sprintf("%d", r.NaiveRounds),
			fmt.Sprintf("%d (%dr+%dx)", r.SchedRounds, r.SchedRemaps, r.SchedExchanges),
			fmt.Sprintf("%d / %d MB", r.NaiveBytes>>20, r.SchedBytes>>20),
			fmt.Sprintf("%.2fx", speedup),
		})
	}
	return "Cluster: communication-avoiding scheduler vs naive per-gate engine (weak scaling)\n" +
		Table([]string{"circuit", "qubits", "nodes", "gates", "t_naive", "t_sched",
			"rounds_naive", "rounds_sched", "comm naive/sched", "speedup"}, table)
}
