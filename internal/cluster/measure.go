package cluster

import (
	"math/bits"

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
// the state: SampleMany(1, src)[0], one uniform and no shuffle variate.
// The draw, its outcome and the block tables live in the Cluster's
// scratch, so on serial shards a call allocates nothing.
func (c *Cluster) Sample(src *rng.Source) uint64 {
	c.draw[0] = src.Float64()
	c.sampleSorted(c.draw[:], c.drawn[:])
	return c.drawn[0]
}

// SampleMany draws k independent outcomes under the single-node
// statevec.SampleMany contract (statevec.SampleSorted: same RNG
// consumption, same clamp semantics). Outcomes are logical basis indices
// whatever the placement; several nodes leave the placement as they find
// it.
func (c *Cluster) SampleMany(k int, src *rng.Source) []uint64 {
	return statevec.SampleSorted(k, src, c.sampleSorted)
}

// sampleSorted resolves sorted cumulative targets rs into out. One node
// canonicalises and is the single-node sampler, statevec.ResolveCDF.
// Several nodes sample under the placement (blockSampler): each reduces
// its shard into a table of block masses, the tables are summed, and only
// the blocks that hold a target are walked, in logical order, reading
// every amplitude where it lies.
func (c *Cluster) sampleSorted(rs []float64, out []uint64) {
	if c.P == 1 {
		c.Canonicalize()
		c.nodes[0].ResolveCDF(rs, out)
		return
	}
	s := c.sampler()
	s.place(c.pos, c.L)
	c.each((*Cluster).sumBlocks)
	total := c.sumTables()
	if total == 0 {
		panic("cluster: sampling from the zero vector")
	}
	c.liveShards()
	clear(s.sent)
	s.remote, s.lastWalked = 0, -1
	acc, i := 0.0, 0
	for k := 0; k < len(s.table) && i < len(rs); k++ {
		next := acc + s.table[k]
		j := i
		for j < len(rs) && rs[j] < next {
			j++
		}
		if j > i {
			c.walkBlock(uint64(k), acc, rs[i:j], out[i:j])
			i = j
		}
		acc = next
	}
	// Targets at or past the total mass (norm drift) clamp to the highest
	// supported outcome.
	if i < len(rs) {
		top := c.highestOutcome()
		for ; i < len(rs); i++ {
			out[i] = top
		}
	}
	c.chargeSampling()
}

// Block sampling. A block is 2^b consecutive logical indices, b =
// blockLog raised with n so a table of 2^(n-b) block masses stays at most
// 2^maxBlockTableLog entries. Under a placement, the local positions
// that carry logical qubits below b vary inside a block and the others,
// R, name it. The low runLog positions, when they are of the first kind,
// cut a shard into runs of 2^runLog amplitudes that each lie in one
// block. A node sums its shard run by run into a partial table indexed by
// the run number's R bits, compacted in physical order (a lookup per run
// and one per segment of runs), so the table fills in the order the
// shard is read. Summing the tables reads, for every block, that entry
// on each node that holds part of it: the node bits that carry
// block-number bits are fixed by the block, the ones that carry logical
// qubits below b (spanNodes) take every value.
const (
	blockLog         = 6
	maxBlockTableLog = 14
)

// blockSampler is the multi-node sampler's scratch: allocated on the
// first draw, its lookups rebuilt from the placement on every call.
type blockSampler struct {
	b, runLog, loBits uint
	// parts holds the nodes' partial tables, stride entries apart; table
	// is their sum, one mass per block in logical order.
	parts, table []float64
	stride       int
	// lo and hi give the compact R bits of a run number's low loBits and
	// remaining bits.
	lo, hi []uint32
	// blockPhys scatters a block number to the physical index of the
	// block's first amplitude, offPhys gives each offset in a block its
	// physical bits, spanNodes is the node bits those offsets set, and
	// share is how many of a block's amplitudes each of its nodes holds.
	blockPhys [][256]uint64
	offPhys   []uint64
	spanNodes uint64
	share     uint64
	// sent marks the nodes that ship weights to the walk, remote counts
	// the weights, and lastWalked is the last block the walk read.
	sent       []bool
	remote     uint64
	lastWalked int64
}

// sampler returns the Cluster's sampler scratch, sized for its register
// on first use.
func (c *Cluster) sampler() *blockSampler {
	if c.smp != nil {
		return c.smp
	}
	n := c.NumQubits()
	b := min(n, max(blockLog, n-min(n, maxBlockTableLog)))
	blocks := 1 << (n - b)
	half := 1 << ((c.L + 1) / 2)
	c.smp = &blockSampler{
		b:         b,
		parts:     make([]float64, c.P*blocks),
		table:     make([]float64, blocks),
		lo:        make([]uint32, half),
		hi:        make([]uint32, half),
		blockPhys: make([][256]uint64, (n-b+7)/8),
		offPhys:   make([]uint64, 1<<b),
		sent:      make([]bool, c.P),
	}
	return c.smp
}

// place rebuilds the lookups from the placement pos of a register whose
// shards hold localBits qubits.
func (s *blockSampler) place(pos []uint, localBits uint) {
	// named[t] reports that local position t carries a block-number bit;
	// to[t] is then its rank among those positions, and 64 otherwise (a
	// shift by 64 drops the bit).
	var named [64]bool
	for q, t := range pos {
		named[t] = uint(q) >= s.b && t < localBits
	}
	var to [64]uint
	rank := uint(0)
	for t := uint(0); t < localBits; t++ {
		to[t] = 64
		if named[t] {
			to[t] = rank
			rank++
		}
	}
	s.stride = 1 << rank
	s.runLog = 0
	for s.runLog < localBits && !named[s.runLog] {
		s.runLog++
	}
	runBits := localBits - s.runLog
	s.loBits = (runBits + 1) / 2
	for x := range s.lo[:1<<s.loBits] {
		s.lo[x] = uint32(spreadBits(uint64(x), to[s.runLog:s.runLog+s.loBits]))
	}
	for x := range s.hi[:1<<(runBits-s.loBits)] {
		s.hi[x] = uint32(spreadBits(uint64(x), to[s.runLog+s.loBits:localBits]))
	}
	scatterTablesInto(s.blockPhys, pos[s.b:])
	s.spanNodes = 0
	for off := range s.offPhys {
		s.offPhys[off] = spreadBits(uint64(off), pos[:s.b])
		s.spanNodes |= s.offPhys[off] >> localBits
	}
	s.share = uint64(len(s.offPhys)) >> bits.OnesCount64(s.spanNodes)
}

// sumBlocks is node p's share of the reduction: its shard, run by run,
// into its partial table. A segment of 2^loBits runs shares its hi
// entry, so a run costs one lookup.
//
//qemu:hotpath
func (c *Cluster) sumBlocks(p int) {
	s := c.smp
	tab := s.parts[p*s.stride:][:s.stride]
	clear(tab)
	amps := c.shard(p)
	runLog := s.runLog
	lo := s.lo[:1<<s.loBits]
	segLog := s.loBits + runLog
	for h, base := range s.hi[:len(amps)>>segLog] {
		seg := amps[h<<segLog:][:1<<segLog]
		if runLog == 0 {
			for l, a := range seg {
				tab[base|lo[l]] += real(a)*real(a) + imag(a)*imag(a)
			}
			continue
		}
		for l, at := range lo {
			tab[base|at] += runMass(seg[l<<runLog:][:1<<runLog])
		}
	}
}

// runMass returns the summed weights of a run of a power-of-two length,
// in two chains so the adds overlap.
//
//qemu:hotpath
func runMass(r []complex128) float64 {
	var m0, m1 float64
	for ; len(r) >= 2; r = r[2:] {
		m0 += real(r[0])*real(r[0]) + imag(r[0])*imag(r[0])
		m1 += real(r[1])*real(r[1]) + imag(r[1])*imag(r[1])
	}
	return m0 + m1
}

// sumTables sums the nodes' partial tables into the block table and
// returns the total mass, summed in block order as the walk's running
// sum is.
func (c *Cluster) sumTables() float64 {
	s := c.smp
	mask := uint64(1)<<c.L - 1
	var total float64
	for k := range s.table {
		g := scatterBits(s.blockPhys, uint64(k))
		x := (g & mask) >> s.runLog
		at, node := int(s.lo[x&(1<<s.loBits-1)]|s.hi[x>>s.loBits]), g>>c.L
		var m float64
		for sub := s.spanNodes; ; sub = (sub - 1) & s.spanNodes {
			m += s.parts[int(node|sub)*s.stride+at]
			if sub == 0 {
				break
			}
		}
		s.table[k] = m
		total += m
	}
	return total
}

// walkBlock resolves targets ts, which all lie in block k's mass range
// starting at acc, by walking the block in logical order. A target the
// walk leaves unresolved (the block's amplitudes summed one by one fall
// short of its table mass) takes the block's last supported outcome,
// which exists: a block that holds a target has mass.
func (c *Cluster) walkBlock(k uint64, acc float64, ts []float64, out []uint64) {
	s := c.smp
	c.chargeWalk(k)
	base := scatterBits(s.blockPhys, k)
	first := k << s.b
	mask := uint64(1)<<c.L - 1
	last, idx := -1, 0
	for off, d := range s.offPhys {
		g := base | d
		a := c.live[g>>c.L][g&mask]
		w := real(a)*real(a) + imag(a)*imag(a)
		acc += w
		if w > 0 {
			last = off
		}
		for idx < len(ts) && ts[idx] < acc {
			out[idx] = first | uint64(off)
			idx++
		}
		if idx == len(ts) {
			return
		}
	}
	for ; idx < len(ts); idx++ {
		out[idx] = first | uint64(last)
	}
}

// highestOutcome returns the highest logical index with nonzero weight:
// the last block of nonzero mass, walked down. The summed table must
// hold some mass.
func (c *Cluster) highestOutcome() uint64 {
	s := c.smp
	mask := uint64(1)<<c.L - 1
	for k := len(s.table) - 1; k >= 0; k-- {
		if s.table[k] == 0 {
			continue
		}
		c.chargeWalk(uint64(k))
		base := scatterBits(s.blockPhys, uint64(k))
		for off := len(s.offPhys) - 1; off >= 0; off-- {
			g := base | s.offPhys[off]
			if a := c.live[g>>c.L][g&mask]; real(a)*real(a)+imag(a)*imag(a) > 0 {
				return uint64(k)<<s.b | uint64(off)
			}
		}
	}
	panic("cluster: sampling from the zero vector")
}

// chargeWalk records that the walk reads block k whole: its fixed node
// bits with every subset of spanNodes name the nodes that hold it, and
// each but the root, node 0, ships its share of the weights.
func (c *Cluster) chargeWalk(k uint64) {
	s := c.smp
	if int64(k) == s.lastWalked {
		return
	}
	s.lastWalked = int64(k)
	fixed := scatterBits(s.blockPhys, k) >> c.L
	for sub := s.spanNodes; ; sub = (sub - 1) & s.spanNodes {
		if p := fixed | sub; p != 0 {
			s.sent[p] = true
			s.remote += s.share
		}
		if sub == 0 {
			break
		}
	}
}

// chargeSampling charges a multi-node draw's communication. The P block
// tables reduce onto the root: one round, one table from every other
// node. The root then walks the blocks that hold a target, reading the
// weights (8 bytes each) that other nodes hold: one round, one message
// from every node that ships any.
func (c *Cluster) chargeSampling() {
	s := c.smp
	others := uint64(c.P - 1)
	c.Stats.BytesSent.Add(others * uint64(len(s.table)) * 8)
	c.Stats.Messages.Add(others)
	c.Stats.Rounds.Add(1)
	if s.remote == 0 {
		return
	}
	var senders uint64
	for _, sent := range s.sent {
		if sent {
			senders++
		}
	}
	c.Stats.BytesSent.Add(s.remote * 8)
	c.Stats.Messages.Add(senders)
	c.Stats.Rounds.Add(1)
}
