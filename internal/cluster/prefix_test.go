package cluster_test

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/fuse"
	"repro/internal/gates"
	"repro/internal/rng"
	"repro/internal/statevec"
)

// TestFreshFlag walks every path that writes the register or moves its
// placement and checks that it clears the fresh flag, that New, Reset and
// the read paths leave it set, and that CopyFrom copies it.
func TestFreshFlag(t *testing.T) {
	const n = 6
	for _, p := range []int{1, 2, 4} {
		open := func() *cluster.Cluster {
			c, err := cluster.New(n, p)
			if err != nil {
				t.Fatal(err)
			}
			return c
		}
		sched, err := cluster.BuildSchedule(&fuse.Plan{}, n, open().L, true)
		if err != nil {
			t.Fatal(err)
		}
		swapped := open().Placement()
		swapped[0], swapped[n-1] = swapped[n-1], swapped[0]
		for _, w := range []struct {
			name  string
			write func(c *cluster.Cluster)
		}{
			{"ApplyGate", func(c *cluster.Cluster) { c.ApplyGate(gates.H(1)) }},
			{"ApplyKraus", func(c *cluster.Cluster) { c.ApplyKraus(gates.Matrix2{1, 0, 0, 0.5}, 1) }},
			{"RunSchedule", func(c *cluster.Cluster) { c.RunSchedule(sched) }},
			{"Remap", func(c *cluster.Cluster) { c.Remap(swapped) }},
			{"ApplyPermutation", func(c *cluster.Cluster) { c.ApplyPermutation(func(i uint64) uint64 { return i ^ 1 }) }},
			{"ReflectUniform", func(c *cluster.Cluster) { c.ReflectUniform() }},
			{"EmulateQFT", func(c *cluster.Cluster) {
				if err := c.EmulateQFT(); err != nil {
					t.Fatal(err)
				}
			}},
			{"LoadState", func(c *cluster.Cluster) {
				if err := c.LoadState(statevec.New(n)); err != nil {
					t.Fatal(err)
				}
			}},
		} {
			c := open()
			if !c.Fresh() {
				t.Fatalf("P=%d: New leaves the register not fresh", p)
			}
			w.write(c)
			if c.Fresh() {
				t.Errorf("P=%d: %s leaves the register fresh", p, w.name)
			}
			fresh := open()
			if err := fresh.CopyFrom(c); err != nil {
				t.Fatal(err)
			}
			if fresh.Fresh() {
				t.Errorf("P=%d: a copy of a register written by %s is fresh", p, w.name)
			}
			c.Reset()
			if !c.Fresh() {
				t.Errorf("P=%d: Reset after %s leaves the register not fresh", p, w.name)
			}
			if err := fresh.CopyFrom(c); err != nil {
				t.Fatal(err)
			}
			if !fresh.Fresh() {
				t.Errorf("P=%d: a copy of a reset register is not fresh", p)
			}
		}
		c := open()
		c.Probability(0)
		c.SampleMany(4, rng.New(1))
		c.Canonicalize()
		if p > 1 {
			c.State() // a gathered copy
		}
		if !c.Fresh() {
			t.Errorf("P=%d: reads leave the register not fresh", p)
		}
		if p == 1 {
			c.State() // the live shard: the caller may write through it
			if c.Fresh() {
				t.Errorf("P=1: State leaves the register fresh")
			}
		}
	}
}

// TestFillProductNeedsFreshRegister checks the fill against the gates its
// clusters stand for on every node count, and that it refuses a register
// that is not fresh.
func TestFillProductNeedsFreshRegister(t *testing.T) {
	const n = 8
	qubits := [][]uint{{0, 7}, {2, 3, 6}}
	gs := []gates.Gate{gates.H(0), gates.CNOT(0, 7), gates.Ry(2, 0.4), gates.Ry(6, 1.3), gates.CNOT(2, 3), gates.CZ(3, 6)}
	var amps [][]complex128
	for _, qs := range qubits {
		local := statevec.New(uint(len(qs)))
		at := map[uint]uint{}
		for t, q := range qs {
			at[q] = uint(t)
		}
		for _, g := range gs {
			if _, ok := at[g.Target]; !ok {
				continue
			}
			lg := g
			lg.Target = at[g.Target]
			lg.Controls = nil
			for _, q := range g.Controls {
				lg.Controls = append(lg.Controls, at[q])
			}
			local.ApplyGate(lg)
		}
		amps = append(amps, local.Amplitudes())
	}
	want := statevec.New(n)
	for _, g := range gs {
		want.ApplyGate(g)
	}
	for _, p := range []int{1, 2, 4} {
		c, err := cluster.New(n, p)
		if err != nil {
			t.Fatal(err)
		}
		before := c.Stats.Snapshot()
		c.FillProduct(statevec.NewProduct(n, c.L, qubits, amps))
		if c.Stats.Snapshot() != before {
			t.Errorf("P=%d: the fill communicated", p)
		}
		if d := c.Gather().MaxDiff(want); d > 1e-12 {
			t.Errorf("P=%d: fill differs from the gates by %g", p, d)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("P=%d: a second fill on a register that is not fresh did not panic", p)
				}
			}()
			c.FillProduct(statevec.NewProduct(n, c.L, qubits, amps))
		}()
	}
}
