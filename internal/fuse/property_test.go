package fuse

import (
	"fmt"
	"runtime"
	"sort"
	"testing"
	"unsafe"

	"repro/internal/circgen"
	"repro/internal/circuit"
	"repro/internal/gates"
	"repro/internal/rng"
	"repro/internal/statevec"
)

// hxhRun is the pinned pair of numerically diagonal runs: H·X·H on qubit 0
// split by phase gates on qubit 1 (structurally diagonal — the three gates
// commute past the phases and merge to Z), then H·CX·H on qubit 2 (a CZ
// the structural rule cannot see through the entangling gate).
func hxhRun() *circuit.Circuit {
	c := circuit.New(4)
	c.Append(gates.H(0), gates.T(1), gates.X(0), gates.T(1), gates.H(0))
	c.Append(gates.H(2), gates.CNOT(3, 2), gates.H(2))
	return c
}

func checkBlockInvariants(t *testing.T, name string, p *Plan) {
	t.Helper()
	for i := range p.Blocks {
		b := &p.Blocks[i]
		if b.Matrix != nil && b.Diag != nil {
			t.Fatalf("%s: block %d has both Matrix and Diag", name, i)
		}
		if !b.Fused() {
			if b.Qubits != nil || len(b.Replay()) == 0 {
				t.Fatalf("%s: replay block %d: qubits %v, %d replay gates", name, i, b.Qubits, len(b.Replay()))
			}
			continue
		}
		w := len(b.Qubits)
		if w < 2 || w > p.Width || !sort.SliceIsSorted(b.Qubits, func(x, y int) bool { return b.Qubits[x] < b.Qubits[y] }) {
			t.Fatalf("%s: fused block %d support %v not ascending within width %d", name, i, b.Qubits, p.Width)
		}
		if len(b.Diag) != 0 && len(b.Diag) != 1<<w || len(b.Matrix) != 0 && len(b.Matrix) != 1<<(2*w) {
			t.Fatalf("%s: fused block %d payload does not match width %d", name, i, w)
		}
	}
}

// TestPlannerProperties drives the planner with seeded generated circuits
// at every width: the cost-only entry point prices exactly the plan New
// materialises, the plan's unitary is the circuit's, and every block is
// well formed.
func TestPlannerProperties(t *testing.T) {
	src := rng.New(20160914)
	type gen struct {
		name string
		c    *circuit.Circuit
	}
	cases := []gen{{"hxh", hxhRun()}}
	for trial := 0; trial < 3; trial++ {
		n := uint(5 + src.Intn(6)) // 5..10
		cases = append(cases,
			gen{fmt.Sprintf("brickwork-n%d", n), circgen.Brickwork(src, n, 4+src.Intn(6))},
			gen{fmt.Sprintf("qft-ladders-n%d", n), circgen.QFTLadders(src, n, 1+src.Intn(3))},
			gen{fmt.Sprintf("phase-runs-n%d", n), circgen.InterruptedPhaseRuns(src, n, 6+src.Intn(10))},
			gen{fmt.Sprintf("wide-controlled-n%d", n), circgen.WideControlled(src, n, 2+src.Intn(4))},
			gen{fmt.Sprintf("random-n%d", n), randomCircuit(src, n, 100)},
		)
	}
	for _, tc := range cases {
		n := tc.c.NumQubits
		init := statevec.NewRandom(n, src)
		want := init.Clone()
		runPlain(tc.c, want)
		for width := 1; width <= MaxWidth; width++ {
			name := fmt.Sprintf("%s/w%d", tc.name, width)
			plan := New(tc.c, width)
			st := plan.Stats()
			if got := Cost(tc.c.Gates, width); got != st.EstChosen {
				t.Fatalf("%s: Cost = %v, New(...).Stats().EstChosen = %v", name, got, st.EstChosen)
			}
			if st.Gates != tc.c.Len() {
				t.Fatalf("%s: plan holds %d gates, circuit %d", name, st.Gates, tc.c.Len())
			}
			checkBlockInvariants(t, name, plan)
			got := init.Clone()
			plan.Apply(got, got.ApplyGate)
			if d := got.MaxDiff(want); d > 1e-10 {
				t.Fatalf("%s: plan differs from the circuit by %g", name, d)
			}
		}
	}
}

// TestNumericallyDiagonalRuns pins how the two H·X·H shapes are planned:
// the split uncontrolled one is structurally diagonal and priced as a
// diagonal sweep; the controlled one is priced as the dense block the
// scheduler saw, and only executes through the diagonal kernel because its
// materialised product came out diagonal.
func TestNumericallyDiagonalRuns(t *testing.T) {
	plan := New(hxhRun(), 2)
	if len(plan.Blocks) != 2 {
		t.Fatalf("want 2 blocks, got %d: %v", len(plan.Blocks), plan.Stats())
	}
	for i, wantCost := range []float64{diagBlockCost, denseBlockCost[2]} {
		b := &plan.Blocks[i]
		if b.Diag == nil || b.Matrix != nil {
			t.Errorf("block %d: want a diagonal block, got Matrix=%v Diag=%v", i, b.Matrix != nil, b.Diag != nil)
		}
		if b.cost != wantCost {
			t.Errorf("block %d: planned cost %v, want %v", i, b.cost, wantCost)
		}
	}
	if st := plan.Stats(); st.EstChosen != diagBlockCost+denseBlockCost[2] || st.Diagonal != 2 {
		t.Errorf("stats %+v: want 2 diagonal blocks priced %v", st, diagBlockCost+denseBlockCost[2])
	}
}

// TestCostAllocatesTheStreamOnly holds the cost-only entry point to its
// contract. On the width where the eager planner hurt most, pricing a
// circuit full of 8-wide candidate runs never builds a 2^8 x 2^8 block
// (1 MiB each). On a long ladder circuit where nearly every block hoists
// gates, the in-place scan allocates the gate stream and its scratch —
// a small multiple of the stream — not a copy of the remaining stream per
// block.
func TestCostAllocatesTheStreamOnly(t *testing.T) {
	for _, tc := range []struct {
		name  string
		c     *circuit.Circuit
		width int
	}{
		{"brickwork", circgen.Brickwork(rng.New(5), 10, 24), MaxWidth},
		{"qft ladders", circgen.QFTLadders(rng.New(6), 10, 60), 2},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		cost := Cost(tc.c.Gates, tc.width)
		runtime.ReadMemStats(&after)
		stream := uint64(tc.c.Len()) * uint64(unsafe.Sizeof(item{}))
		if got := after.TotalAlloc - before.TotalAlloc; got > 4*stream {
			t.Errorf("%s: Cost(w=%d) allocated %d B on %d gates, want <= %d", tc.name, tc.width, got, tc.c.Len(), 4*stream)
		}
		if cost <= 0 {
			t.Errorf("%s: Cost = %v for a non-trivial circuit", tc.name, cost)
		}
	}
}
