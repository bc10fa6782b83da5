package cluster

import (
	"fmt"
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
// which on four nodes leaves the node bits reversed, and where that
// leaves the placement canonical — on two nodes the relabel cancels the
// four-step's reversed output bits — the QFT with swaps after it, which
// leaves the placement bit-reversed: the first remap then starts from
// field qubits in descending physical order. The after cases start from
// a four-step of the same field in the other direction, so the
// transform's entry placement is that four-step's output: they must
// come back to the loaded state, and pay the two node-bit swaps of a
// four-step from the identity (remap into the swapped layout, swap back)
// and then those of one from the natural-order output — at pos 0 the
// output's reversed shard bits are undone in place, which moves nothing
// between nodes.
func TestFieldFFTParity(t *testing.T) {
	cases := []struct {
		n       uint
		p       int
		pos, w  uint
		inverse bool
		drifted bool
		after   bool
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
		// Seven node bits: the computing exchange transforms them with
		// the shared 2^7-point plan.
		{n: 14, p: 128, pos: 0, w: 14},
		{n: 16, p: 128, pos: 2, w: 14, inverse: true},
		{n: 15, p: 128, pos: 0, w: 15},
		// QFT then QFT⁻¹ (and one inverse then forward, narrower than the
		// register) from the four-step's own output placement.
		{n: 10, p: 2, pos: 0, w: 10, inverse: true, after: true},
		{n: 10, p: 4, pos: 0, w: 10, inverse: true, after: true},
		{n: 10, p: 8, pos: 0, w: 10, inverse: true, after: true},
		{n: 10, p: 4, pos: 0, w: 9, after: true},
		{n: 10, p: 4, pos: 1, w: 9, inverse: true, after: true},
		{n: 14, p: 128, pos: 0, w: 14, inverse: true, after: true},
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
			for _, circ := range []*circuit.Circuit{qft.CircuitNoSwap(tc.n), qft.Circuit(tc.n)} {
				if !c.identityPlacement() {
					break
				}
				op := recognize.Analyze(circ, recognize.DefaultOptions(recognize.Annotated)).Ops()[0]
				if _, err := c.ApplyOp(op); err != nil {
					t.Fatal(err)
				}
				op.Apply(st)
			}
			if c.identityPlacement() {
				t.Fatalf("n=%d p=%d: qft-noswap and qft left the placement canonical", tc.n, tc.p)
			}
		}
		plan, err := fft.NewPlan(uint64(1) << tc.w)
		if err != nil {
			t.Fatal(err)
		}
		loaded := st.Clone()
		var want StatsSnapshot
		if tc.after {
			c.ResetStats()
			if err := c.distributedFFTField(tc.pos, tc.w, !tc.inverse); err != nil {
				t.Fatal(err)
			}
			plan.TransformField(st.Amplitudes(), tc.pos, !tc.inverse, st.Workers())
			want = addStats(fourStepSwaps(c, tc.pos, tc.w, c.ident), fourStepSwaps(c, tc.pos, tc.w, naturalOutput(c, tc.pos, tc.w)))
		}
		if err := c.distributedFFTField(tc.pos, tc.w, tc.inverse); err != nil {
			t.Fatalf("n=%d p=%d pos=%d w=%d: %v", tc.n, tc.p, tc.pos, tc.w, err)
		}

		plan.TransformField(st.Amplitudes(), tc.pos, tc.inverse, st.Workers())
		if d := c.Gather().MaxDiff(st); d > 1e-10 {
			t.Errorf("n=%d p=%d pos=%d w=%d inverse=%v drifted=%v: max diff %g vs single-node field transform",
				tc.n, tc.p, tc.pos, tc.w, tc.inverse, tc.drifted, d)
		}
		if !tc.after {
			continue
		}
		if d := c.Gather().MaxDiff(loaded); d > 1e-10 {
			t.Errorf("n=%d p=%d pos=%d w=%d: the transform and its inverse are %g from the loaded state",
				tc.n, tc.p, tc.pos, tc.w, d)
		}
		if got := c.Stats.Snapshot(); got != want {
			t.Errorf("n=%d p=%d pos=%d w=%d: the transform and its inverse communicated %+v, want %+v",
				tc.n, tc.p, tc.pos, tc.w, got, want)
		}
	}
}

// fourStepSwaps is what the four-step's node-bit swaps of the field
// [pos, pos+w) cost from placement from: the remap into the swapped
// layout (free when from is that layout already: n1 = L), then the swap
// back to the identity.
func fourStepSwaps(c *Cluster, pos, w uint, from []uint) StatsSnapshot {
	n1 := pos + w - c.L
	swapped := slices.Clone(c.ident)
	for j := uint(0); j < n1; j++ {
		swapped[c.L+j], swapped[c.L-n1+j] = c.L-n1+j, c.L+j
	}
	back := remapStats(c, swapped, c.ident)
	if slices.Equal(from, swapped) {
		return back
	}
	return addStats(remapStats(c, from, swapped), back)
}

// naturalOutput is the placement a four-step of the field [pos, pos+w)
// leaves when its shard transform runs in natural order: logical pos+j
// at node position L+j for j < n1, the rest of the field in order from
// shard position pos.
func naturalOutput(c *Cluster, pos, w uint) []uint {
	n1 := pos + w - c.L
	out := slices.Clone(c.ident)
	for j := uint(0); j < w; j++ {
		if j < n1 {
			out[pos+j] = c.L + j
		} else {
			out[pos+j] = pos + j - n1
		}
	}
	return out
}

// remapStats is one all-to-all round moving the register from placement
// from to placement to.
func remapStats(c *Cluster, from, to []uint) StatsSnapshot {
	srcOf := make([]uint, len(to))
	for q, p := range to {
		srcOf[p] = from[q]
	}
	crossing, pairs := moveTraffic(srcOf, c.L)
	return StatsSnapshot{BytesSent: 16 * crossing, Messages: pairs, AllToAlls: 1, Rounds: 1}
}

// addStats sums two snapshots.
func addStats(a, b StatsSnapshot) StatsSnapshot {
	return StatsSnapshot{
		BytesSent: a.BytesSent + b.BytesSent,
		Messages:  a.Messages + b.Messages,
		Exchanges: a.Exchanges + b.Exchanges,
		AllToAlls: a.AllToAlls + b.AllToAlls,
		Rounds:    a.Rounds + b.Rounds,
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

// BenchmarkFourStep times the distributed QFT of the whole register at
// n = 20 and 22 on 2, 4 and 8 nodes, each from the canonical placement a
// solve starts it from: EmulateQFT alone, EmulateQFT then
// SampleMany(1024) under the placement it leaves, and a QFT·QFT⁻¹ pair
// (the inverse starting from the forward's output placement), beside a
// CopyFrom of the register — every node copying its shard in the same
// superstep fan-out, the read floor — all in ns per amplitude.
func BenchmarkFourStep(b *testing.B) {
	for _, n := range []uint{20, 22} {
		for _, p := range []int{2, 4, 8} {
			src, err := New(n, p)
			if err != nil {
				b.Fatal(err)
			}
			if err := src.LoadState(statevec.NewRandom(n, rng.New(1))); err != nil {
				b.Fatal(err)
			}
			c, err := New(n, p)
			if err != nil {
				b.Fatal(err)
			}
			perAmp := func(b *testing.B) {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(uint64(1)<<n), "ns/amp")
			}
			for _, run := range []struct {
				name string
				f    func() error
			}{
				{"qft", c.EmulateQFT},
				{"qft+sample", func() error {
					if err := c.EmulateQFT(); err != nil {
						return err
					}
					drawSink = c.SampleMany(1024, rng.New(2))
					return nil
				}},
				{"qft-pair", func() error {
					if err := c.EmulateQFT(); err != nil {
						return err
					}
					return c.distributedFFTField(0, n, true)
				}},
			} {
				b.Run(fmt.Sprintf("n=%d/p=%d/%s", n, p, run.name), func(b *testing.B) {
					// One untimed call plans the moves and builds the
					// scratch.
					if err := c.CopyFrom(src); err != nil {
						b.Fatal(err)
					}
					if err := run.f(); err != nil {
						b.Fatal(err)
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						b.StopTimer()
						if err := c.CopyFrom(src); err != nil {
							b.Fatal(err)
						}
						b.StartTimer()
						if err := run.f(); err != nil {
							b.Fatal(err)
						}
					}
					perAmp(b)
				})
			}
			b.Run(fmt.Sprintf("n=%d/p=%d/copy", n, p), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if err := c.CopyFrom(src); err != nil {
						b.Fatal(err)
					}
				}
				perAmp(b)
			})
		}
	}
}

// drawSink keeps the benchmarked draws live.
var drawSink []uint64
