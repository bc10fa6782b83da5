package fuse

import (
	"fmt"
	"math"
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

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func checkBlockInvariants(t *testing.T, name string, p *Plan) {
	t.Helper()
	for i := range p.Blocks {
		b := &p.Blocks[i]
		if forms := btoi(b.Matrix != nil) + btoi(b.Factors != nil) + btoi(b.Diag != nil); forms > 1 {
			t.Fatalf("%s: block %d has %d of Matrix, Factors and Diag", name, i, forms)
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
		if dense := b.Dense(); len(b.Diag) != 0 && len(b.Diag) != 1<<w || len(dense) != 0 && len(dense) != 1<<(2*w) {
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

// checkFactoredBlock holds one factored block to the run it stands for:
// the factors' bit sets partition the block's bits, each at least two
// wide, and their product — Dense — is, column by column to 1e-13, what the
// run's gates do one by one to the basis states of the block's qubits.
func checkFactoredBlock(t *testing.T, name string, b *Block) {
	t.Helper()
	w := len(b.Qubits)
	if b.Factors.Len() < 2 {
		t.Fatalf("%s: %d factors", name, b.Factors.Len())
	}
	var covered uint
	for i := 0; i < b.Factors.Len(); i++ {
		f := b.Factors.Factor(i)
		if len(f.Bits) < 2 {
			t.Fatalf("%s: factor %d has bits %v, want at least two", name, i, f.Bits)
		}
		for _, bit := range f.Bits {
			if bit >= uint(w) || covered&(1<<bit) != 0 {
				t.Fatalf("%s: factor %d's bits %v leave the block or overlap another's", name, i, f.Bits)
			}
			covered |= 1 << bit
		}
	}
	if covered != 1<<w-1 {
		t.Fatalf("%s: the factors cover bits %b of %d", name, covered, w)
	}
	// The run on a register of the block's qubits alone.
	var pos [64]uint
	for j, q := range b.Qubits {
		pos[q] = uint(j)
	}
	local := make([]gates.Gate, len(b.Gates))
	for i, g := range b.Gates {
		g.Target = pos[g.Target]
		g.Controls = append([]uint(nil), g.Controls...)
		for k, q := range g.Controls {
			g.Controls[k] = pos[q]
		}
		local[i] = g
	}
	product, dim := b.Dense(), 1<<w
	for col := 0; col < dim; col++ {
		st := statevec.NewZero(uint(w))
		st.Amplitudes()[col] = 1
		for _, g := range local {
			st.ApplyGate(g)
		}
		for row, want := range st.Amplitudes() {
			if d := product[row*dim+col] - want; math.Abs(real(d)) > 1e-13 || math.Abs(imag(d)) > 1e-13 {
				t.Fatalf("%s: product entry (%d,%d) is %v, the gates give %v", name, row, col, product[row*dim+col], want)
			}
		}
	}
}

// TestFactoredBlocksAreTheirRuns checks every factored block the planner
// makes of the generated families at widths 2 to 8 (checkFactoredBlock).
// The prices keep the planner below seven qubits, so runs of up to eight
// with known components are materialised directly as well: they pin how
// single qubits are paired and where an odd one goes.
func TestFactoredBlocksAreTheirRuns(t *testing.T) {
	src := rng.New(2016_22)
	var circuits []*circuit.Circuit
	for trial := 0; trial < 3; trial++ {
		n := uint(6 + src.Intn(5)) // 6..10
		circuits = append(circuits,
			circgen.Brickwork(src, n, 4+src.Intn(6)),
			circgen.QFTLadders(src, n, 1+src.Intn(3)),
			circgen.InterruptedPhaseRuns(src, n, 6+src.Intn(10)),
			circgen.WideControlled(src, n, 2+src.Intn(4)),
			randomCircuit(src, n, 100),
		)
	}
	seen := map[int]int{} // block width -> factored blocks
	for ci, c := range circuits {
		for width := 2; width <= MaxWidth; width++ {
			plan := New(c, width)
			for bi := range plan.Blocks {
				if b := &plan.Blocks[bi]; b.Factors != nil {
					seen[len(b.Qubits)]++
					checkFactoredBlock(t, fmt.Sprintf("circuit %d, width %d, block %d on %v", ci, width, bi, b.Qubits), b)
				}
			}
		}
	}
	t.Logf("factored blocks by width: %v", seen)
	if seen[4] == 0 || seen[5] == 0 || seen[6] == 0 {
		t.Errorf("the generated plans hold no factored block at one of the widths 4, 5, 6")
	}

	for _, tc := range []struct {
		components []int // sizes of the run's connected components, in qubit order
		factors    []int // widths of the factors they must become, ascending
	}{
		{[]int{2, 2}, []int{2, 2}},
		{[]int{1, 1, 1, 1}, []int{2, 2}},
		{[]int{1, 1, 2}, []int{2, 2}},
		{[]int{1, 2, 2}, []int{2, 3}},
		{[]int{1, 1, 1, 2}, []int{2, 3}},
		{[]int{3, 1, 2}, []int{3, 3}},
		{[]int{2, 2, 3}, []int{2, 2, 3}},
		{[]int{1, 3, 3}, []int{3, 4}},
		{[]int{4, 4}, []int{4, 4}},
		{[]int{1, 1, 1, 1, 1, 1, 1, 1}, []int{2, 2, 2, 2}},
		{[]int{5, 1, 1, 1}, []int{3, 5}}, // the odd one joins the pair, not the five
		{[]int{1, 2}, nil},               // nowhere for the single qubit to go but the pair
		{[]int{1, 1, 1}, nil},
	} {
		// Qubits spread over a 20-qubit register, every other one.
		var groups [][]uint
		var gs []gates.Gate
		next := uint(1)
		for _, size := range tc.components {
			group := make([]uint, size)
			for j := range group {
				group[j] = next
				next += 2
			}
			groups = append(groups, group)
		}
		// Three rounds of a rotation on every qubit and a chain of
		// controlled gates along every component, components interleaved.
		for round := 0; round < 3; round++ {
			for _, group := range groups {
				for j, q := range group {
					gs = append(gs, gates.Ry(q, src.Float64()*3), gates.Rz(q, src.Float64()*3))
					if j > 0 {
						gs = append(gs, gates.CNOT(group[j-1], q))
					}
				}
			}
		}
		run := itemsOf(gs)
		var support uint64
		for _, it := range run {
			support |= it.mask
		}
		b := materialise(denseKind, run, support, 0)
		name := fmt.Sprintf("components %v", tc.components)
		if tc.factors == nil {
			if b.Factors != nil || b.Matrix == nil {
				t.Errorf("%s: want one dense matrix, got Factors=%v Matrix=%v", name, b.Factors != nil, b.Matrix != nil)
			}
			continue
		}
		if b.Factors == nil {
			t.Errorf("%s: not factored", name)
			continue
		}
		var got []int
		for i := 0; i < b.Factors.Len(); i++ {
			got = append(got, len(b.Factors.Factor(i).Bits))
		}
		sort.Ints(got)
		if fmt.Sprint(got) != fmt.Sprint(tc.factors) {
			t.Errorf("%s: factor widths %v, want %v", name, got, tc.factors)
		}
		checkFactoredBlock(t, name, &b)
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
		if b.Diag == nil || b.Dense() != nil {
			t.Errorf("block %d: want a diagonal block, got dense=%v Diag=%v", i, b.Dense() != nil, b.Diag != nil)
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
