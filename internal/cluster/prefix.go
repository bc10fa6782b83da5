package cluster

import (
	"repro/internal/par"
	"repro/internal/statevec"
)

// Fresh reports whether the register holds |0...0> in the identity
// placement, as New and Reset leave it, with nothing written since.
func (c *Cluster) Fresh() bool { return c.fresh }

// FillProduct makes the fresh register the product state fill describes
// (a gate unit's commuting product prefix): every node writes its own
// shard, at the shard's worker count, only the amplitudes the product
// makes nonzero. It communicates nothing, needs no remap and allocates
// nothing. It panics on a register that is not fresh.
func (c *Cluster) FillProduct(fill *statevec.Product) {
	if !c.fresh {
		panic("cluster: product fill on a register that is not fresh")
	}
	if fill.NumQubits() != c.NumQubits() {
		panic("cluster: product fill built for another register width")
	}
	c.op.product = fill
	c.op.shares = int(min(uint64(c.shardWorkers()), fill.Rows(c.L)))
	c.op.body = func(c *Cluster, k int) {
		node := k / c.op.shares
		c.nodes[node].FillProduct(c.op.product, uint64(node), k%c.op.shares, c.op.shares)
	}
	par.For(c.P*c.op.shares, c.runBodyFn)
	c.op.product = nil
	c.fresh = false
}
