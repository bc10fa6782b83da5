package cluster

import (
	"math"
	"sort"

	"repro/internal/bitops"
	"repro/internal/rng"
	"repro/internal/statevec"
)

// Probability returns the probability that measuring logical qubit q
// yields 1. A node-local qubit reduces within every shard; a
// node-selecting qubit just sums the masses of the shards whose node bit
// reads 1 — no amplitude is touched twice either way, and nothing
// communicates beyond the P partial sums.
func (c *Cluster) Probability(q uint) float64 {
	if q >= c.NumQubits() {
		panic("cluster: qubit out of range")
	}
	return c.conditionalMass(q, 1)
}

// conditionalMass returns the probability mass of the branch where logical
// qubit q reads outcome, as one cluster-wide reduction: local qubits sum
// the branch directly inside every shard (statevec.BranchMass), node-
// selecting qubits sum the masses of the shards on the outcome's side.
func (c *Cluster) conditionalMass(q uint, outcome uint64) float64 {
	t := c.pos[q]
	c.op.want = outcome & 1
	if t < c.L {
		c.op.bit = t
		c.each(func(c *Cluster, p int) { c.op.sums[p] = c.nodes[p].BranchMass(c.op.bit, c.op.want) })
	} else {
		c.op.bit = t - c.L
		c.each(func(c *Cluster, p int) {
			c.op.sums[p] = 0
			if bitops.Bit(uint64(p), c.op.bit) == c.op.want {
				c.op.sums[p] = c.nodes[p].Mass()
			}
		})
	}
	return c.sumNodes()
}

// Sample draws one full-register measurement outcome without collapsing
// the state: the per-node masses locate the owning shard, which resolves
// the draw against its local CDF in its own chunks. The placement is
// canonicalised first so outcomes are logical basis indices and the walk
// order matches the single-node sampler. The draw and its outcome live in
// the Cluster's scratch, so on serial shards a call allocates nothing.
func (c *Cluster) Sample(src *rng.Source) uint64 {
	c.draw[0] = src.Float64()
	c.sampleSorted(c.draw[:], c.drawn[:])
	return c.drawn[0]
}

// SampleMany draws k independent outcomes under the single-node
// statevec.SampleMany contract (statevec.SampleSorted: same RNG
// consumption, same clamp semantics), each shard resolving the draws
// that land in its mass range concurrently.
func (c *Cluster) SampleMany(k int, src *rng.Source) []uint64 {
	return statevec.SampleSorted(k, src, c.sampleSorted)
}

// sampleSorted resolves sorted cumulative targets rs into out, consuming
// rs: per-node masses form the node-level prefix sum and each node
// resolves its slice of targets through statevec.ResolveCDF. One node is
// one ResolveCDF, the single-node sampler itself.
func (c *Cluster) sampleSorted(rs []float64, out []uint64) {
	c.Canonicalize()
	if c.P == 1 {
		c.nodes[0].ResolveCDF(rs, out)
		return
	}
	c.each(func(c *Cluster, p int) { c.op.sums[p] = c.nodes[p].Mass() })
	prefix, bounds := c.op.prefix, c.op.bounds
	for p, m := range c.op.sums {
		prefix[p+1] = prefix[p] + m
	}
	if prefix[c.P] == 0 {
		panic("cluster: sampling from the zero vector")
	}
	for p := range bounds {
		bounds[p] = sort.SearchFloat64s(rs, prefix[p])
	}
	// Draws past the total mass (norm drift) clamp to the highest
	// supported outcome: the last node with mass resolves them as +Inf.
	last := c.P - 1
	for c.op.sums[last] == 0 {
		last--
	}
	for i := bounds[c.P]; i < len(rs); i++ {
		rs[i] = math.Inf(1)
	}
	for p := last + 1; p <= c.P; p++ {
		bounds[p] = len(rs)
	}
	c.op.rs, c.op.out = rs, out
	c.each((*Cluster).resolveNode)
	c.op.rs, c.op.out = nil, nil
}

// resolveNode resolves the draws landing in node p's mass range, in
// place: its targets become offsets into its own mass, its outcomes
// shard indices, then logical basis indices.
func (c *Cluster) resolveNode(p int) {
	lo, hi := c.op.bounds[p], c.op.bounds[p+1]
	if lo == hi {
		return
	}
	ts, sub := c.op.rs[lo:hi], c.op.out[lo:hi]
	for i := range ts {
		ts[i] -= c.op.prefix[p]
	}
	c.nodes[p].ResolveCDF(ts, sub)
	base := uint64(p) << c.L
	for i := range sub {
		sub[i] |= base
	}
}
