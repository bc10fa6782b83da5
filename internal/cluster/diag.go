package cluster

import (
	"sort"

	"repro/internal/bitops"
	"repro/internal/statevec"
)

// applyDiagTable multiplies every amplitude by d[x], where bit j of x is
// logical qubit qubits[j] — the lowering shared by fused diagonal blocks
// and recognised diagonal ops, communication-free under any placement.
// For node p the node-selecting members fix a partial index into the 2^w
// table; the local members select within the reduced 2^(w_local) table,
// shared by all nodes with the same fixed part, which every node applies
// through the table kernels of its shard. The reduced tables are laid out
// once, in ascending physical order (the order ApplyDiagTable requires),
// so a drifted placement costs a table permutation, not a slower sweep.
func (c *Cluster) applyDiagTable(d []complex128, qubits []uint) {
	// A local member is one table bit and the shard position its qubit
	// holds; a node member, one table bit and a bit of the node number.
	type member struct{ bit, phys uint }
	var localM []member
	var nodeBit, nodePhys []uint
	for j, q := range qubits {
		if q >= c.NumQubits() {
			panic("cluster: qubit out of range")
		}
		if p := c.pos[q]; p < c.L {
			localM = append(localM, member{uint(j), p})
		} else {
			nodeBit, nodePhys = append(nodeBit, uint(j)), append(nodePhys, p-c.L)
		}
	}
	byPhys := func(a, b int) bool { return localM[a].phys < localM[b].phys }
	ascending := sort.SliceIsSorted(localM, byPhys)
	if !ascending {
		sort.Slice(localM, byPhys)
	}
	localPhys := make([]uint, len(localM))
	localBit := make([]uint, len(localM))
	for i, m := range localM {
		localPhys[i], localBit[i] = m.phys, m.bit
	}

	// reduced[f] is the table over the local members on the nodes whose
	// node-selecting member bits spell f.
	reduced := [][]complex128{d}
	if len(nodeBit) > 0 || !ascending {
		tabs := scatterTables(localBit)
		reduced = make([][]complex128, 1<<len(nodeBit))
		for f := range reduced {
			fixed := spreadBits(uint64(f), nodeBit)
			t := make([]complex128, 1<<len(localM))
			for k := range t {
				t[k] = d[fixed|scatterBits(tabs, uint64(k))]
			}
			reduced[f] = t
		}
	}
	c.eachNode(func(p int) {
		var f uint64
		for i, b := range nodePhys {
			f |= bitops.Bit(uint64(p), b) << uint(i)
		}
		switch t := reduced[f]; {
		case len(localPhys) == 0:
			c.nodes[p].Scale(t[0])
		case len(localPhys) <= statevec.MaxMatrixNQubits:
			c.nodes[p].ApplyDiagN(t, localPhys)
		default:
			c.nodes[p].ApplyDiagTable(t, localPhys)
		}
	})
}

// applyPhaseFlip negates the amplitudes whose logical qubits (ascending,
// LSB first) spell value. Only the nodes whose node-selecting members
// match take part, and each touches just the matching 2^(L - w_local)
// amplitudes of its shard.
func (c *Cluster) applyPhaseFlip(qubits []uint, value uint64) {
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
	c.eachNode(func(p int) {
		if uint64(p)&nodeMask != nodeWant {
			return
		}
		shard := c.shard(p)
		for o := uint64(0); o < others; o++ {
			i := bitops.InsertZeroBits(o, localPhys...) | localWant
			shard[i] = -shard[i]
		}
	})
}
