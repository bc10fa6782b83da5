package cluster_test

import (
	"testing"

	"repro/internal/bitops"
	"repro/internal/cluster"
	"repro/internal/gates"
	"repro/internal/recognize"
	"repro/internal/revlib"
	"repro/internal/rng"
)

func TestDistributedPermutationMatchesLocal(t *testing.T) {
	src := rng.New(21)
	for _, p := range []int{1, 2, 8} {
		c, err := cluster.New(9, p)
		if err != nil {
			t.Fatal(err)
		}
		st := loadRandom(t, c, src)
		f := func(i uint64) uint64 { return (i + 37) % 512 }
		c.ApplyPermutation(f)
		want := st.Clone()
		want.ApplyPermutation(f)
		if d := c.Gather().MaxDiff(want); d > 0 {
			t.Fatalf("p=%d: distributed permutation differs by %g", p, d)
		}
	}
}

func TestDistributedPermutationOneAllToAll(t *testing.T) {
	src := rng.New(22)
	c, _ := cluster.New(10, 4)
	loadRandom(t, c, src)
	c.ResetStats()
	// Bit-reversal: a communication-heavy global permutation.
	c.ApplyPermutation(func(i uint64) uint64 {
		var r uint64
		for k := uint(0); k < 10; k++ {
			r |= ((i >> k) & 1) << (9 - k)
		}
		return r
	})
	if got := c.Stats.AllToAlls.Load(); got != 1 {
		t.Errorf("global permutation used %d all-to-alls, want 1", got)
	}
	if c.Stats.BytesSent.Load() == 0 {
		t.Error("bit reversal should cross node boundaries")
	}
}

// TestDistributedPermutationTraffic pins the accounting and the scatter
// together: every source node writes straight into every destination's
// buffer (bit reversal sends each node's amplitudes to all P nodes, so under
// -race all P goroutines write every buffer at once), the result equals the
// single-node permutation, and the bytes and messages charged are a function
// of the map alone — 16 bytes per index whose node changes, the same from
// |0...0> as from a dense state.
func TestDistributedPermutationTraffic(t *testing.T) {
	const n = 10
	mulOp := planOps(t, revlib.BuildMultiplier(revlib.NewMultiplierLayout(3)), recognize.Annotated)[0]
	mul, _ := mulOp.Permutation()
	maps := map[string]func(uint64) uint64{
		"bit-reversal": func(i uint64) uint64 { return bitops.ReverseBits(i, n) },
		"rotate":       func(i uint64) uint64 { return (i + 37) % (1 << n) },
		"multiplier":   mul,
		"identity":     func(i uint64) uint64 { return i },
	}
	src := rng.New(24)
	for name, f := range maps {
		for _, p := range []int{2, 4, 8} {
			c, err := cluster.New(n, p)
			if err != nil {
				t.Fatal(err)
			}
			var want uint64
			for i := uint64(0); i < 1<<n; i++ {
				if f(i)>>c.L != i>>c.L {
					want += 16
				}
			}
			c.ApplyPermutation(f) // from |0...0>
			fromZero := c.Stats.Snapshot()
			st := loadRandom(t, c, src)
			c.ResetStats()
			c.ApplyPermutation(f)
			dense := c.Stats.Snapshot()
			if fromZero != dense {
				t.Errorf("%s p=%d: counters depend on the state: %+v from |0>, %+v dense", name, p, fromZero, dense)
			}
			if dense.BytesSent != want || dense.Messages != uint64(p*(p-1)) || dense.AllToAlls != 1 || dense.Rounds != 1 {
				t.Errorf("%s p=%d: %+v, want %d bytes in %d messages, one all-to-all round", name, p, dense, want, p*(p-1))
			}
			st.ApplyPermutation(f)
			if d := c.Gather().MaxDiff(st); d != 0 {
				t.Errorf("%s p=%d: distributed permutation differs by %g", name, p, d)
			}
		}
	}
}

func TestDistributedMultiplyAfterGates(t *testing.T) {
	// Mixing distributed gate execution and distributed emulation on the
	// same register.
	l := revlib.NewMultiplierLayout(2)
	m := l.M
	c, _ := cluster.New(l.NumQubits(), 2)
	for q := uint(0); q < 2*m; q++ {
		c.ApplyGate(gates.H(q))
	}
	op := planOps(t, revlib.BuildMultiplier(l), recognize.Annotated)[0]
	if _, err := c.ApplyOp(op); err != nil {
		t.Fatal(err)
	}
	st := c.Gather()
	// Check P(a=3, b=2, c=3*2 mod 4=2) = 1/16.
	idx := uint64(3) | 2<<m | 2<<(2*m)
	a := st.Amplitude(idx)
	p := real(a)*real(a) + imag(a)*imag(a)
	if p < 0.9/16 || p > 1.1/16 {
		t.Fatalf("P(3,2,2) = %v, want 1/16", p)
	}
}
