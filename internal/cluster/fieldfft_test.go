package cluster

import (
	"slices"
	"testing"

	"repro/internal/circuit"
	"repro/internal/fft"
	"repro/internal/fuse"
	"repro/internal/gates"
	"repro/internal/qft"
	"repro/internal/recognize"
	"repro/internal/rng"
	"repro/internal/statevec"
)

// TestFieldFFTParity pins the distributed Fourier lowering against the
// single-node field transform to 1e-10, across node counts, field
// positions, widths (odd and even, shard-straddling and not) and both
// directions. At P=4 the widths above L exercise the four-step
// factorisation; at P=2 every sub-register field fits a shard and runs
// shard-locally. The drifted cases run a full-register qft-noswap first,
// which leaves the placement bit-reversed: the first remap then starts
// from field qubits on node-selecting positions, in descending physical
// order.
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
		// Seven node bits, past denseDFTBits: the DFT block runs as a
		// transform of the shard.
		{n: 14, p: 128, pos: 0, w: 14},
		{n: 16, p: 128, pos: 2, w: 14, inverse: true},
		{n: 15, p: 128, pos: 0, w: 15},
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

// TestFieldFFTRejectsTooWide pins the feasibility bound: a field with
// more bits on node positions than a shard holds has no lowering.
func TestFieldFFTRejectsTooWide(t *testing.T) {
	c, err := New(8, 32) // L = 3
	if err != nil {
		t.Fatal(err)
	}
	if err := c.LoadState(statevec.NewRandom(8, rng.New(3))); err != nil {
		t.Fatal(err)
	}
	if err := c.distributedFFTField(0, 7, false); err == nil {
		t.Error("7-qubit field accepted on 3-qubit shards (4 of its bits are node bits)")
	}
}

// TestOneNodeFourierSandwichMovesNothing pins the one-node sandwich
// QFT · rotations · QFT⁻¹: the QFT leaves the register's bit reversal in
// the placement, the rotation schedule runs under it without
// canonicalising, and the inverse restores the identity — two networks,
// no reordering pass, no scratch shard set, no communication, and the
// state of the three circuits run gate by gate.
func TestOneNodeFourierSandwichMovesNothing(t *testing.T) {
	const n = 12
	c, err := New(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(5)
	st := statevec.NewRandom(n, src)
	if err := c.LoadState(st); err != nil {
		t.Fatal(err)
	}
	opOf := func(circ *circuit.Circuit) *recognize.Op {
		return recognize.Analyze(circ, recognize.DefaultOptions(recognize.Annotated)).Ops()[0]
	}
	rot := circuit.New(n)
	for q := uint(0); q < n; q++ {
		rot.Append(gates.Ry(q, src.Float64()), gates.Rz(q, src.Float64()))
	}
	sched, err := BuildSchedule(fuse.New(rot, 4), n, n, true)
	if err != nil {
		t.Fatal(err)
	}
	reversed := make([]uint, n)
	for q := range reversed {
		reversed[q] = n - 1 - uint(q)
	}
	if _, err := c.ApplyOp(opOf(qft.Circuit(n))); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(c.pos, reversed) {
		t.Fatalf("after the QFT: placement %v, want the reversal", c.pos)
	}
	c.RunSchedule(sched)
	if !slices.Equal(c.pos, reversed) {
		t.Fatalf("after the rotations: placement %v, want the reversal", c.pos)
	}
	if _, err := c.ApplyOp(opOf(qft.InverseCircuit(n))); err != nil {
		t.Fatal(err)
	}
	if !c.identityPlacement() {
		t.Fatalf("after the inverse: placement %v, want the identity", c.pos)
	}
	if c.scratch != nil {
		t.Error("the one-node sandwich allocated a scratch shard set")
	}
	if s := c.Stats.Snapshot(); s != (StatsSnapshot{}) {
		t.Errorf("the one-node sandwich communicated: %+v", s)
	}
	qft.Circuit(n).Run(st)
	rot.Run(st)
	qft.InverseCircuit(n).Run(st)
	if d := c.State().MaxDiff(st); d > 1e-10 {
		t.Errorf("differs from the circuits run gate by gate by %g", d)
	}
}
