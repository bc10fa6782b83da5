package cluster_test

import (
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/fuse"
	"repro/internal/gates"
	"repro/internal/qft"
	"repro/internal/rng"
	"repro/internal/statevec"
)

// runScheduled executes circ on a fresh cluster through the scheduled
// engine and returns the cluster.
func runScheduled(t *testing.T, n uint, p int, circ *circuit.Circuit, width int) *cluster.Cluster {
	t.Helper()
	c, err := cluster.New(n, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RunScheduled(circ, width); err != nil {
		t.Fatal(err)
	}
	return c
}

// runNaive executes circ gate by gate on a fresh cluster.
func runNaive(t *testing.T, n uint, p int, circ *circuit.Circuit) *cluster.Cluster {
	t.Helper()
	c, err := cluster.New(n, p)
	if err != nil {
		t.Fatal(err)
	}
	c.Run(circ)
	return c
}

// TestScheduleRoundCountQFTPinned pins the scheduler's communication
// rounds on the known circuit of Eq. 6. The no-swap QFT emits Hadamards
// from the top qubit down, so every qubit's working set passes through
// the local window once: the naive engine pays log2(P) exchange rounds
// (one per node-qubit Hadamard), while the scheduler covers all eight
// Hadamards with the minimum achievable batches for this order — one
// exchange at P=2 (a remap could not amortise), two remaps at P=8
// (log2 P = 3 for naive).
func TestScheduleRoundCountQFTPinned(t *testing.T) {
	const n = uint(8)
	circ := qft.CircuitNoSwap(n)
	for _, tc := range []struct {
		p          int
		wantRounds uint64
	}{
		{2, 1}, {4, 2}, {8, 2},
	} {
		naive := runNaive(t, n, tc.p, circ)
		sched := runScheduled(t, n, tc.p, circ, 1)
		wantNaive := uint64(naive.NodeBits)
		if got := naive.Stats.Rounds.Load(); got != wantNaive {
			t.Errorf("p=%d: naive QFT used %d rounds, want %d (= log2 P)", tc.p, got, wantNaive)
		}
		if got := sched.Stats.Rounds.Load(); got != tc.wantRounds {
			t.Errorf("p=%d: scheduled QFT used %d rounds, want %d", tc.p, got, tc.wantRounds)
		}
		if d := sched.Gather().MaxDiff(naive.Gather()); d > 1e-10 {
			t.Errorf("p=%d: scheduled and naive states differ by %g", tc.p, d)
		}
	}
}

// TestScheduleBatchesRepeatedRemoteGates pins the scheduler's core win: a
// run of dense gates on one node-selecting qubit costs the naive engine
// one exchange round per gate, the scheduler exactly one remap round.
func TestScheduleBatchesRepeatedRemoteGates(t *testing.T) {
	const n = uint(8)
	circ := circuit.New(n)
	for i := 0; i < 4; i++ {
		circ.Append(gates.H(7), gates.Rx(7, 0.3), gates.H(6))
	}
	naive := runNaive(t, n, 4, circ)
	sched := runScheduled(t, n, 4, circ, 1)
	if got := naive.Stats.Rounds.Load(); got != 12 {
		t.Errorf("naive used %d rounds, want 12 (one per remote gate)", got)
	}
	if got := sched.Stats.Rounds.Load(); got != 1 {
		t.Errorf("scheduled used %d rounds, want exactly 1 remap", got)
	}
	if ng, sg := naive.Stats.Gates.Load(), sched.Stats.Gates.Load(); ng != sg {
		t.Errorf("gate counters disagree: naive %d, scheduled %d", ng, sg)
	}
	if d := sched.Gather().MaxDiff(naive.Gather()); d > 1e-10 {
		t.Errorf("scheduled and naive states differ by %g", d)
	}
}

// TestScheduleIsolatedRemoteGateFallsBackToExchange: with a single remote
// gate and nothing to batch, the scheduler must not remap (which would
// displace locally-needed qubits) but pay the one pairwise exchange the
// naive engine pays.
func TestScheduleIsolatedRemoteGateFallsBackToExchange(t *testing.T) {
	const n = uint(8)
	circ := circuit.New(n)
	circ.Append(gates.H(0), gates.H(7), gates.H(1))
	plan := fuse.New(circ, 1)
	s, err := cluster.BuildSchedule(plan, n, 6, true)
	if err != nil {
		t.Fatal(err)
	}
	if s.Remaps != 0 || s.ExchangeGates != 1 || s.Rounds != 1 {
		t.Errorf("isolated remote gate scheduled as remaps=%d exchanges=%d rounds=%d, want 0/1/1",
			s.Remaps, s.ExchangeGates, s.Rounds)
	}
	sched := runScheduled(t, n, 4, circ, 1)
	naive := runNaive(t, n, 4, circ)
	if got, want := sched.Stats.Rounds.Load(), naive.Stats.Rounds.Load(); got != want {
		t.Errorf("scheduled used %d rounds, naive %d — want equal here", got, want)
	}
	if d := sched.Gather().MaxDiff(naive.Gather()); d > 1e-10 {
		t.Errorf("scheduled and naive states differ by %g", d)
	}
}

// TestScheduleFewerRoundsThanNaive asserts the headline property on the
// Figure-4-style workloads: batching remote-qubit gates behind placement
// remaps strictly beats one round per gate.
func TestScheduleFewerRoundsThanNaive(t *testing.T) {
	workloads := []struct {
		name string
		mk   func(n uint) *circuit.Circuit
	}{
		{"brickwork", func(n uint) *circuit.Circuit { return experiments.Brickwork(n, 6, 7) }},
		{"random", func(n uint) *circuit.Circuit { return experiments.RandomCircuit(n, 200, 11) }},
	}
	for _, w := range workloads {
		for _, p := range []int{2, 4, 8} {
			n := uint(9)
			circ := w.mk(n)
			naive := runNaive(t, n, p, circ)
			sched := runScheduled(t, n, p, circ, 1)
			nr, sr := naive.Stats.Rounds.Load(), sched.Stats.Rounds.Load()
			if sr >= nr {
				t.Errorf("%s p=%d: scheduled %d rounds, naive %d — want strictly fewer", w.name, p, sr, nr)
			}
			if sb, nb := sched.Stats.BytesSent.Load(), naive.Stats.BytesSent.Load(); sb >= nb {
				t.Errorf("%s p=%d: scheduled moved %d bytes, naive %d — want strictly fewer", w.name, p, sb, nb)
			}
			if d := sched.Gather().MaxDiff(naive.Gather()); d > 1e-10 {
				t.Errorf("%s p=%d: scheduled and naive states differ by %g", w.name, p, d)
			}
		}
	}
}

// TestScheduleDiagonalCircuitNeedsNoRounds: a circuit of diagonal gates
// (even on node-selecting qubits, even fused into diagonal blocks) must
// schedule with zero communication.
func TestScheduleDiagonalCircuitNeedsNoRounds(t *testing.T) {
	n := uint(8)
	c := circuit.New(n)
	for q := uint(0); q < n; q++ {
		c.Append(gates.Rz(q, 0.3+float64(q)))
		c.Append(gates.T(q))
	}
	c.Append(gates.CR(1, 7, 0.5), gates.CR(6, 7, 1.1), gates.Z(6))
	for _, width := range []int{1, 3} {
		cl := runScheduled(t, n, 4, c, width)
		if got := cl.Stats.Rounds.Load(); got != 0 {
			t.Errorf("width %d: diagonal circuit used %d rounds, want 0", width, got)
		}
	}
}

// TestScheduleDiagOffConstrains: with the diagonal optimisation off
// (qHiPSTER-class), diagonal gates on node-selecting qubits block like
// any other gate, so the same circuit now needs a remap — and the result
// must still match the reference.
func TestScheduleDiagOffConstrains(t *testing.T) {
	n := uint(8)
	circ := circuit.New(n)
	circ.Append(gates.H(0), gates.Rz(7, 0.9), gates.CR(2, 6, 0.4))
	c, err := cluster.New(n, 4)
	if err != nil {
		t.Fatal(err)
	}
	c.DiagonalOptimization = false
	plan := fuse.New(circ, 1)
	s, err := cluster.BuildSchedule(plan, n, c.L, false)
	if err != nil {
		t.Fatal(err)
	}
	if s.Rounds == 0 {
		t.Error("diag-off schedule of node-qubit diagonal gates used 0 rounds")
	}
	c.RunSchedule(s)
	ref := statevec.New(n)
	circ.Run(ref)
	if d := c.Gather().MaxDiff(ref); d > 1e-10 {
		t.Errorf("diag-off scheduled state differs from reference by %g", d)
	}
}

// TestScheduleTooWideBlockErrors: a dense fused block wider than the
// node-local capacity cannot be placed and must fail scheduling.
func TestScheduleTooWideBlockErrors(t *testing.T) {
	n := uint(6)
	circ := experiments.Brickwork(n, 4, 3)
	plan := fuse.New(circ, 4)
	if _, err := cluster.BuildSchedule(plan, n, 3, true); err == nil {
		t.Fatal("4-qubit dense blocks on 3-local-qubit nodes scheduled without error")
	} else if !strings.Contains(err.Error(), "local qubits") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestScheduledFusedBlocksMatchReference runs fused plans (dense and
// diagonal blocks) through the distributed engine at several widths and
// node counts against the single-node fused simulator.
func TestScheduledFusedBlocksMatchReference(t *testing.T) {
	n := uint(9)
	for _, seed := range []uint64{1, 2} {
		circ := experiments.Brickwork(n, 5, seed)
		circ.Extend(qft.CircuitNoSwap(n))
		for _, width := range []int{2, 3, 4} {
			for _, p := range []int{2, 4, 8} {
				cl := runScheduled(t, n, p, circ, width)
				ref := statevec.New(n)
				circ.Run(ref)
				if d := cl.Gather().MaxDiff(ref); d > 1e-10 {
					t.Errorf("seed %d width %d p=%d: distributed fused run differs by %g",
						seed, width, p, d)
				}
			}
		}
	}
}

// TestScheduleReuseAcrossRuns: one schedule, many executions (the
// RunPlan-amortisation contract) — results must be identical.
func TestScheduleReuseAcrossRuns(t *testing.T) {
	n := uint(8)
	circ := experiments.RandomCircuit(n, 120, 5)
	plan := fuse.New(circ, 3)
	s, err := cluster.BuildSchedule(plan, n, 6, true)
	if err != nil {
		t.Fatal(err)
	}
	var ref *cluster.Cluster
	for run := 0; run < 2; run++ {
		c, err := cluster.New(n, 4)
		if err != nil {
			t.Fatal(err)
		}
		src := rng.New(77)
		if err := c.LoadState(statevec.NewRandom(n, src)); err != nil {
			t.Fatal(err)
		}
		c.RunSchedule(s)
		if ref == nil {
			ref = c
			continue
		}
		if d := c.Gather().MaxDiff(ref.Gather()); d != 0 {
			t.Errorf("re-running one schedule diverged by %g", d)
		}
	}
}
