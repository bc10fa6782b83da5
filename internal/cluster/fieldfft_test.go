package cluster

import (
	"testing"

	"repro/internal/fft"
	"repro/internal/qft"
	"repro/internal/recognize"
	"repro/internal/rng"
	"repro/internal/statevec"
)

// TestFieldFFTParity pins the field-axis four-step factorisation against
// the single-node field transform to 1e-10, across node counts, field
// positions, widths (odd and even, shard-straddling and not) and both
// directions. At P=4 the widths above L exercise the mid-width gap the
// substrate exists for; at P=2 every sub-register field is narrower than
// the shard, so the test drives the factorisation itself rather than the
// Lowerable selection. The drifted cases run a full-register qft-noswap
// first, which leaves the placement bit-reversed: the twiddle table is then
// indexed by field qubits that sit on node-selecting positions, in
// descending physical order.
func TestFieldFFTParity(t *testing.T) {
	cases := []struct {
		n       uint
		p       int
		pos, w  uint
		inverse bool
		drifted bool
	}{
		{n: 8, p: 2, pos: 0, w: 5},
		{n: 8, p: 2, pos: 2, w: 6, inverse: true},
		{n: 9, p: 2, pos: 1, w: 7},
		{n: 8, p: 4, pos: 0, w: 7},                // mid-width: L=6 < w=7 < n=8
		{n: 8, p: 4, pos: 1, w: 7, inverse: true}, // mid-width, inverse
		{n: 10, p: 4, pos: 2, w: 8},               // even split, interior field
		{n: 10, p: 4, pos: 0, w: 9, inverse: true},
		{n: 8, p: 4, pos: 0, w: 7, drifted: true},
		{n: 9, p: 2, pos: 1, w: 7, inverse: true, drifted: true},
		{n: 10, p: 4, pos: 2, w: 8, drifted: true},
	}
	for _, tc := range cases {
		c, err := New(tc.n, tc.p)
		if err != nil {
			t.Fatal(err)
		}
		src := rng.New(7)
		st := statevec.NewRandom(tc.n, src)
		if err := c.LoadState(st); err != nil {
			t.Fatal(err)
		}
		if tc.drifted {
			noswap := recognize.Analyze(qft.CircuitNoSwap(tc.n), recognize.DefaultOptions(recognize.Annotated)).Ops()[0]
			if _, err := c.ApplyOp(noswap); err != nil {
				t.Fatal(err)
			}
			if c.identityPlacement() {
				t.Fatalf("n=%d p=%d: qft-noswap left the placement canonical", tc.n, tc.p)
			}
			noswap.Apply(st)
		}
		if err := c.distributedFFTField(tc.pos, tc.w, tc.inverse); err != nil {
			t.Fatalf("n=%d p=%d pos=%d w=%d: %v", tc.n, tc.p, tc.pos, tc.w, err)
		}

		plan, err := fft.NewPlan(uint64(1) << tc.w)
		if err != nil {
			t.Fatal(err)
		}
		plan.TransformField(st.Amplitudes(), tc.pos, tc.inverse, st.Workers())
		if d := c.Gather().MaxDiff(st); d > 1e-10 {
			t.Errorf("n=%d p=%d pos=%d w=%d inverse=%v drifted=%v: max diff %g vs single-node field transform",
				tc.n, tc.p, tc.pos, tc.w, tc.inverse, tc.drifted, d)
		}
	}
}

// TestFieldFFTRejectsTooWide pins the feasibility bound: a field whose
// larger half exceeds the shard width has no field-axis lowering.
func TestFieldFFTRejectsTooWide(t *testing.T) {
	c, err := New(8, 32) // L = 3
	if err != nil {
		t.Fatal(err)
	}
	if err := c.LoadState(statevec.NewRandom(8, rng.New(3))); err != nil {
		t.Fatal(err)
	}
	if err := c.distributedFFTField(0, 7, false); err == nil {
		t.Error("7-qubit field accepted on 3-qubit shards (needs a 4-qubit half)")
	}
}
