package cluster

import (
	"sort"

	"repro/internal/bitops"
	"repro/internal/rng"
)

// nodeReduce runs fn on every node in one superstep and returns the
// per-node results in node order — the cluster-wide reduction. Each node's
// work runs through its shard's statevec engine, so large shards fan out
// again (parallelReduce) underneath.
func nodeReduce(c *Cluster, fn func(p int) float64) []float64 {
	res := make([]float64, c.P)
	c.eachNode(func(p int) { res[p] = fn(p) })
	return res
}

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
	outcome &= 1
	t := c.pos[q]
	var parts []float64
	if t < c.L {
		parts = nodeReduce(c, func(p int) float64 { return c.nodes[p].BranchMass(t, outcome) })
	} else {
		tb := t - c.L
		parts = nodeReduce(c, func(p int) float64 {
			if bitops.Bit(uint64(p), tb) != outcome {
				return 0
			}
			return c.nodes[p].Mass()
		})
	}
	var total float64
	for _, m := range parts {
		total += m
	}
	return total
}

// lastSupported returns the highest logical basis index with nonzero
// probability — the clamp target for float-drift sampling fallthrough.
// Only called on the canonical placement.
func (c *Cluster) lastSupported() uint64 {
	for p := c.P - 1; p >= 0; p-- {
		shard := c.shard(p)
		for i := len(shard) - 1; i >= 0; i-- {
			if shard[i] != 0 {
				return uint64(p)<<c.L | uint64(i)
			}
		}
	}
	panic("cluster: sampling from the zero vector")
}

// Sample draws one full-register measurement outcome without collapsing
// the state: the per-node masses locate the owning shard, which resolves
// the draw against its local CDF in its own chunks. The placement is
// canonicalised first so outcomes are logical basis indices and the walk
// order matches the single-node sampler.
func (c *Cluster) Sample(src *rng.Source) uint64 {
	out := make([]uint64, 1)
	c.sampleSorted([]float64{src.Float64()}, out)
	return out[0]
}

// SampleMany draws k independent outcomes, mirroring the single-node
// statevec.SampleMany contract (same RNG consumption, same clamp
// semantics): uniforms are sorted against the distributed CDF, each shard
// resolves the draws landing in its mass range concurrently, and the
// results are restored to random order.
func (c *Cluster) SampleMany(k int, src *rng.Source) []uint64 {
	rs := make([]float64, k)
	for i := range rs {
		rs[i] = src.Float64()
	}
	sort.Float64s(rs)
	out := make([]uint64, k)
	c.sampleSorted(rs, out)
	// Restore random order so callers see i.i.d. draws.
	for i := k - 1; i > 0; i-- {
		j := src.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// sampleSorted resolves sorted cumulative targets rs into out: per-node
// masses form the node-level prefix sum, each node resolves its slice of
// targets through statevec.ResolveCDF, and fallthrough targets (norm
// drift past the total mass) clamp to the highest supported outcome.
func (c *Cluster) sampleSorted(rs []float64, out []uint64) {
	c.Canonicalize()
	masses := nodeReduce(c, func(p int) float64 { return c.nodes[p].Mass() })
	prefix := make([]float64, c.P+1)
	for p, m := range masses {
		prefix[p+1] = prefix[p] + m
	}
	if prefix[c.P] == 0 {
		panic("cluster: sampling from the zero vector")
	}
	c.eachNode(func(p int) {
		lo := sort.SearchFloat64s(rs, prefix[p])
		hi := sort.SearchFloat64s(rs, prefix[p+1])
		if lo == hi {
			return
		}
		ts := make([]float64, hi-lo)
		for i := range ts {
			ts[i] = rs[lo+i] - prefix[p]
		}
		sub := make([]uint64, len(ts))
		c.nodes[p].ResolveCDF(ts, sub)
		base := uint64(p) << c.L
		for i, v := range sub {
			out[lo+i] = base | v
		}
	})
	if tail := sort.SearchFloat64s(rs, prefix[c.P]); tail < len(rs) {
		last := c.lastSupported()
		for i := tail; i < len(rs); i++ {
			out[i] = last
		}
	}
}
