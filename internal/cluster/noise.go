package cluster

import (
	"math"

	"repro/internal/gates"
	"repro/internal/statevec"
)

// Reset returns the cluster to |0...0> with the identity placement,
// reusing every shard allocation. The trajectory runner calls it between
// shots so a P-node batch costs one shard set, not one per trajectory.
func (c *Cluster) Reset() {
	c.each(func(c *Cluster, p int) {
		c.nodes[p].Reset() // cleared at the node's worker count, amplitude 0 set
		if p > 0 {
			c.nodes[p].SetAmplitude(0, 0)
		}
	})
	copy(c.pos, c.ident)
	c.fresh = true
}

// ApplyKraus applies the (generally non-unitary) 2x2 operator m to
// logical qubit q, renormalises the distributed state, and returns the
// pre-normalisation branch mass — the trajectory runner's jump step on
// the sharded engine. A node-local qubit applies the operator inside
// every shard with no communication; a node-selecting qubit pays one
// pairwise shard-exchange round, like any non-diagonal remote gate.
func (c *Cluster) ApplyKraus(m gates.Matrix2, q uint) float64 {
	statevec.CheckTargetControls(c.NumQubits(), q, nil)
	c.fresh = false
	t := c.pos[q]
	c.op.gate.Matrix = m
	if t < c.L {
		c.op.bit = t
		c.each(func(c *Cluster, p int) { c.op.sums[p] = c.nodes[p].ApplyKraus1(c.op.gate.Matrix, c.op.bit) })
	} else {
		c.applyNodeKrausExchange(t - c.L)
	}
	total := c.sumNodes()
	if !(total > 0) {
		panic("cluster: renormalising zero-mass state")
	}
	c.op.scale = complex(1/math.Sqrt(total), 0)
	c.each(func(c *Cluster, p int) { c.nodes[p].Scale(c.op.scale) })
	return total
}

// applyNodeKrausExchange mirrors applyNodeTargetExchange for the
// non-unitary 2x2 in c.op.gate.Matrix: each node pair differing in the target
// node bit exchanges shards, computes its half of the update, and leaves
// the mass of what it wrote in its 0 side's c.op.sums entry. One
// communication round.
func (c *Cluster) applyNodeKrausExchange(tbit uint) {
	clear(c.op.sums)
	c.exchangePairs(tbit, 0, func(c *Cluster, p0 int, old0, old1, s0, s1 []complex128) {
		m := &c.op.gate.Matrix
		var acc float64
		for i := range s0 {
			a0, a1 := old0[i], old1[i]
			b0 := m[0]*a0 + m[1]*a1
			b1 := m[2]*a0 + m[3]*a1
			s0[i], s1[i] = b0, b1
			acc += real(b0)*real(b0) + imag(b0)*imag(b0) + real(b1)*real(b1) + imag(b1)*imag(b1)
		}
		c.op.sums[p0] = acc
	})
}
