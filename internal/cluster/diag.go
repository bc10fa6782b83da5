package cluster

import (
	"sort"

	"repro/internal/bitops"
)

// diagScratch is applyDiagTable's working set, kept on the Cluster so a
// diagonal block allocates nothing: the table bit and position of each
// local member (ascending by position) and each node-selecting member,
// the reduced tables and the lookup tables that build them. The node
// superstep reads the tables in force from cur, the node-selecting
// members' node bits from nodePhys[:nn] and the local positions from
// c.op.phys.
type diagScratch struct {
	localBit, localPhys [64]uint
	nodeBit, nodePhys   [64]uint
	one                 [1][]complex128
	tables              [][]complex128
	entries             []complex128
	scatter             [8][256]uint64

	cur [][]complex128
	nn  int
}

// applyDiagTable multiplies every amplitude by d[x], where bit j of x is
// logical qubit qubits[j] — the lowering shared by fused diagonal blocks
// and recognised diagonal ops, communication-free under any placement.
// For node p the node-selecting members fix a partial index into the 2^w
// table; the local members select within the reduced 2^(w_local) table,
// shared by all nodes with the same fixed part, which every node applies
// through its shard's ApplyDiagTable. The reduced tables are laid out
// once, in ascending physical order (the order ApplyDiagTable requires),
// so a drifted placement costs a table permutation, not a slower sweep;
// under a placement that keeps the members local and in order, d itself
// is the one table.
func (c *Cluster) applyDiagTable(d []complex128, qubits []uint) {
	s := &c.diag
	var nl, nn int
	for j, q := range qubits {
		if q >= c.NumQubits() {
			panic("cluster: qubit out of range")
		}
		p := c.pos[q]
		if p >= c.L {
			s.nodeBit[nn], s.nodePhys[nn] = uint(j), p-c.L
			nn++
			continue
		}
		// Insertion by position: supports are a few qubits wide.
		i := nl
		for ; i > 0 && s.localPhys[i-1] > p; i-- {
			s.localPhys[i], s.localBit[i] = s.localPhys[i-1], s.localBit[i-1]
		}
		s.localPhys[i], s.localBit[i] = p, uint(j)
		nl++
	}
	localBit, localPhys, nodeBit := s.localBit[:nl], s.localPhys[:nl], s.nodeBit[:nn]
	ascending := true
	for i, b := range localBit {
		ascending = ascending && b == uint(i)
	}

	// tables[f] is the table over the local members on the nodes whose
	// node-selecting member bits spell f.
	s.one[0] = d
	tables := s.one[:]
	if nn > 0 || !ascending {
		tabs := scatterTablesInto(s.scatter[:(nl+7)/8], localBit)
		size := 1 << nl
		if cap(s.entries) < len(d) {
			s.entries = make([]complex128, len(d))
		}
		if cap(s.tables) < 1<<nn {
			s.tables = make([][]complex128, 1<<nn)
		}
		tables = s.tables[:1<<nn]
		for f := range tables {
			fixed := spreadBits(uint64(f), nodeBit)
			t := s.entries[f*size : (f+1)*size]
			for k := range t {
				t[k] = d[fixed|scatterBits(tabs, uint64(k))]
			}
			tables[f] = t
		}
	}
	s.cur, s.nn, c.op.phys = tables, nn, localPhys
	c.each(func(c *Cluster, p int) {
		s := &c.diag
		var f uint64
		for i, b := range s.nodePhys[:s.nn] {
			f |= bitops.Bit(uint64(p), b) << uint(i)
		}
		if t, phys := s.cur[f], c.op.phys; len(phys) == 0 {
			c.nodes[p].Scale(t[0])
		} else {
			c.nodes[p].ApplyDiagTable(t, phys)
		}
	})
	s.cur, s.one[0] = nil, nil
}

// applyPhaseFlip negates the amplitudes whose logical qubits (ascending,
// LSB first) spell value and returns the sum of what it negated, as they
// were. Only the nodes whose node-selecting members match take part, and
// each touches just the matching 2^(L - w_local) amplitudes of its shard.
func (c *Cluster) applyPhaseFlip(qubits []uint, value uint64) complex128 {
	var nodeMask, nodeWant, localWant uint64
	var localPhys []uint
	for j, q := range qubits {
		if q >= c.NumQubits() {
			panic("cluster: qubit out of range")
		}
		bit := value >> uint(j) & 1
		if p := c.pos[q]; p < c.L {
			localPhys = append(localPhys, p)
			localWant |= bit << p
		} else {
			nodeMask |= 1 << (p - c.L)
			nodeWant |= bit << (p - c.L)
		}
	}
	sort.Slice(localPhys, func(a, b int) bool { return localPhys[a] < localPhys[b] })
	others := c.LocalSize() >> uint(len(localPhys))
	flipped := make([]complex128, c.P)
	c.eachNode(func(p int) {
		if uint64(p)&nodeMask != nodeWant {
			return
		}
		shard := c.shard(p)
		var s complex128
		for o := uint64(0); o < others; o++ {
			i := bitops.InsertZeroBits(o, localPhys...) | localWant
			s += shard[i]
			shard[i] = -shard[i]
		}
		flipped[p] = s
	})
	var total complex128
	for _, s := range flipped {
		total += s
	}
	return total
}
