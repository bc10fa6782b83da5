package backend_test

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/backend"
	"repro/internal/experiments"
	"repro/internal/qasm"
	"repro/internal/recognize"
	"repro/internal/rng"
)

// TestSolveAllocationBudget pins what one served solve of the benchmark's
// gate-sweep shape — parse, Compile, Reset, Run, SampleMany(1024) of the
// 20-qubit 300-gate circuit at Fused w=4 on a warm backend — leaves on the
// heap. The collector never runs inside that workload's ten seconds, so
// its peak RSS is the state plus solves x this number; the budget keeps
// the wider plans of the AVX2-priced planner (one 4 KiB matrix per w=4
// block is intrinsic) below what the narrow plans used to allocate
// (485 KiB).
func TestSolveAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 20-qubit circuit twice")
	}
	var text strings.Builder
	if err := qasm.Write(&text, experiments.GateSweep(20, 10, 3)); err != nil {
		t.Fatal(err)
	}
	target := backend.Target{NumQubits: 20, Kind: backend.Fused, FuseWidth: 4, Emulate: recognize.Off, Workers: 2}
	b, err := backend.New(target)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	solve := func() {
		c, err := qasm.ParseString(text.String())
		if err != nil {
			t.Fatal(err)
		}
		x, err := backend.Compile(c, target)
		if err != nil {
			t.Fatal(err)
		}
		b.Reset()
		if _, err := b.Run(x); err != nil {
			t.Fatal(err)
		}
		b.SampleMany(1024, rng.New(1))
	}
	solve() // the worker pool, kernel scratch and sampling buffers are the backend's
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	solve()
	runtime.ReadMemStats(&after)
	const budget = 360 << 10
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("one solve allocated %d B", got)
	if got > budget {
		t.Errorf("one solve allocated %d B, budget %d", got, budget)
	}
}

// TestClusterShardCommPinned pins the communication of the benchmark's
// cluster-shard circuit (20 qubits, 4 nodes, w=4, emulation on): the
// counts behind its cluster.rounds / planned_remaps / bytes_sent. They
// moved from 8 / 3 / 1.04858e8 when the AVX2-priced planner widened the
// brickwork half's blocks (ISSUE 16): cluster.requiredMask makes a dense
// block need its whole support node-local where a replayed controlled gate
// constrains placement through its target only, so wider blocks turn free
// remote controls into remaps. The in-process link is priced at zero, so
// wall time did not pay for it; a placement term in the price table
// (ROADMAP item 3) has to precede any further widening of cluster plans.
func TestClusterShardCommPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 20-qubit circuit on 4 emulated nodes")
	}
	target := backend.Target{NumQubits: 20, Kind: backend.Cluster, Nodes: 4, FuseWidth: 4, Emulate: recognize.Auto, Workers: 2}
	x, err := backend.Compile(experiments.ClusterShard(20, 6, 3), target)
	if err != nil {
		t.Fatal(err)
	}
	b, err := backend.New(target)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	res, err := b.Run(x)
	if err != nil {
		t.Fatal(err)
	}
	if res.Comm.Rounds != 11 || res.PlannedRemaps != 6 || res.Comm.BytesSent != 1<<27 {
		t.Errorf("rounds %d, planned remaps %d, bytes sent %d; want 11, 6, %d",
			res.Comm.Rounds, res.PlannedRemaps, res.Comm.BytesSent, 1<<27)
	}
}
