package cluster

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/gates"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/statevec"
)

// TestNodeFanOutIsBitIdentical runs the supersteps, the pair exchanges and
// the distributed FFT on shards large enough for their kernels to fan out
// again inside each node's chunk: two workers per node must give the
// amplitudes of one, bit for bit.
func TestNodeFanOutIsBitIdentical(t *testing.T) {
	const n, p = 15, 4 // 2^13-amplitude shards: node kernels fan out
	st := statevec.NewRandom(n, rng.New(31))
	var got [2]*statevec.State
	for i, w := range []int{1, 2} {
		c, err := New(n, p)
		if err != nil {
			t.Fatal(err)
		}
		c.SetNodeParallelism(w)
		if err := c.LoadState(st); err != nil {
			t.Fatal(err)
		}
		for _, g := range []gates.Gate{gates.H(0), gates.H(14), gates.CNOT(13, 2), gates.Ry(5, 0.3), gates.CR(14, 3, 0.7)} {
			c.ApplyGate(g)
		}
		c.ApplyKraus(gates.Matrix2{1, 0, 0, 0.8}, 13)
		if err := c.EmulateQFT(); err != nil {
			t.Fatal(err)
		}
		got[i] = c.Gather()
	}
	if d := got[1].MaxDiff(got[0]); d != 0 {
		t.Errorf("two workers per node differ from one by %g", d)
	}
}

// TestSuperstepPanicReachesCaller panics in the first and in the last
// node's chunk of a superstep: the caller sees *par.Panic carrying the
// value, and no goroutine is left behind.
func TestSuperstepPanicReachesCaller(t *testing.T) {
	c, err := New(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	c.eachNode(func(int) {}) // start par's workers
	before := runtime.NumGoroutine()
	for _, bad := range []int{0, c.P - 1} {
		func() {
			defer func() {
				p, ok := recover().(*par.Panic)
				if !ok || p.Value != "boom" || len(p.Stack) == 0 {
					t.Errorf("node %d: recovered %#v, want *par.Panic{Value: \"boom\"} with a stack", bad, p)
				}
			}()
			c.eachNode(func(p int) {
				if p == bad {
					panic("boom")
				}
			})
		}()
	}
	if after := goroutinesAfter(before); after > before {
		t.Errorf("goroutine count went from %d to %d across two superstep panics", before, after)
	}
}

// goroutinesAfter returns the goroutine count once it has come back to at
// most before, or after a second of polling: a goroutine of the runtime or
// the test framework may still be starting or exiting, so only a count
// that stays above before is a leak.
func goroutinesAfter(before int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 1000 && n > before; i++ {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}
