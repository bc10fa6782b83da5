package cluster

import (
	"math"
	"sync"

	"repro/internal/bitops"
	"repro/internal/gates"
	"repro/internal/statevec"
)

// Reset returns the cluster to |0...0> with the identity placement,
// reusing every shard allocation. The trajectory runner calls it between
// shots so a P-node batch costs one shard set, not one per trajectory.
func (c *Cluster) Reset() {
	c.eachNode(func(p int) { clear(c.shard(p)) })
	c.nodes[0].SetAmplitude(0, 1)
	for q := range c.pos {
		c.pos[q] = uint(q)
	}
}

// ApplyKraus applies the (generally non-unitary) 2x2 operator m to
// logical qubit q, renormalises the distributed state, and returns the
// pre-normalisation branch mass — the trajectory runner's jump step on
// the sharded engine. A node-local qubit applies the operator inside
// every shard with no communication; a node-selecting qubit pays one
// pairwise shard-exchange round, like any non-diagonal remote gate.
func (c *Cluster) ApplyKraus(m gates.Matrix2, q uint) float64 {
	statevec.CheckTargetControls(c.NumQubits(), q, nil)
	t := c.pos[q]
	var total float64
	if t < c.L {
		for _, v := range nodeReduce(c, func(p int) float64 { return c.nodes[p].ApplyKraus1(m, t) }) {
			total += v
		}
	} else {
		total = c.applyNodeKrausExchange(m, t-c.L)
	}
	if !(total > 0) {
		panic("cluster: renormalising zero-mass state")
	}
	inv := complex(1/math.Sqrt(total), 0)
	c.eachNode(func(p int) { c.nodes[p].Scale(inv) })
	return total
}

// applyNodeKrausExchange mirrors applyNodeTargetExchange for a
// non-unitary 2x2: each node pair differing in the target node bit
// exchanges shards, computes its half of the update, and accumulates the
// mass of what it wrote. One communication round.
func (c *Cluster) applyNodeKrausExchange(m gates.Matrix2, tbit uint) float64 {
	local := c.LocalSize()
	bufs := c.grabScratch()
	masses := make([]float64, c.P)
	var wg sync.WaitGroup
	for p0 := 0; p0 < c.P; p0++ {
		if bitops.Bit(uint64(p0), tbit) == 1 {
			continue // enumerate pairs from the 0 side
		}
		p1 := p0 | (1 << tbit)
		wg.Add(1)
		go func(p0, p1 int) {
			defer wg.Done()
			bufA, bufB := bufs[p0], bufs[p1]
			c.exchangeShards(p0, p1, bufA, bufB)
			s0, s1 := c.shard(p0), c.shard(p1)
			var acc float64
			for i := uint64(0); i < local; i++ {
				a0, a1 := bufA[i], bufB[i]
				b0 := m[0]*a0 + m[1]*a1
				b1 := m[2]*a0 + m[3]*a1
				s0[i], s1[i] = b0, b1
				acc += real(b0)*real(b0) + imag(b0)*imag(b0) + real(b1)*real(b1) + imag(b1)*imag(b1)
			}
			masses[p0] = acc
		}(p0, p1)
	}
	wg.Wait()
	c.Stats.Rounds.Add(1)
	var total float64
	for _, v := range masses {
		total += v
	}
	return total
}
