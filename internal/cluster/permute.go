package cluster

// ApplyPermutation relabels basis states across the whole distributed
// register: the amplitude at global index i moves to f(i). This is the
// paper's Section 4.2 observation made executable: arithmetic on registers
// too large for one node "can only be dealt with by emulating the
// classical function, which effectively performs one global permutation of
// the (distributed) state vector" — a single all-to-all, instead of
// thousands of gate applications each potentially communicating.
//
// f must be a bijection on [0, 2^n) and safe for concurrent calls. Every
// source node writes its amplitudes straight to their destinations; a
// bijection sends no two of them to one element, so the nodes need no
// ordering between them. The traffic counted is every amplitude whose node
// changes, a function of f alone.
func (c *Cluster) ApplyPermutation(f func(uint64) uint64) {
	// f speaks logical basis indices; restore the canonical layout first.
	c.Canonicalize()
	c.fresh = false
	L, mask := c.L, c.LocalSize()-1
	next := c.grabScratch()
	crossing := make([]uint64, c.P)
	c.eachNode(func(src int) {
		base := uint64(src) << L
		var cross uint64
		for i, a := range c.shard(src) {
			g := f(base | uint64(i))
			dst := g >> L
			next[dst][g&mask] = a
			if dst != uint64(src) {
				cross++
			}
		}
		crossing[src] = cross
	})
	c.installShards(next)
	var total uint64
	for _, x := range crossing {
		total += x
	}
	p64 := uint64(c.P)
	c.Stats.BytesSent.Add(total * 16)
	c.Stats.Messages.Add(p64 * (p64 - 1))
	c.Stats.AllToAlls.Add(1)
	c.Stats.Rounds.Add(1)
}
