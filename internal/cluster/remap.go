package cluster

import "fmt"

// Remap installs a new logical→physical placement with one batched
// all-to-all (permuteBits): each amplitude is read and written exactly
// once, and the network is charged for every amplitude that changed
// nodes, coalesced into one message per communicating (src, dst) pair.
// This is the communication-avoiding primitive: however many
// remote-qubit gates the scheduler batched behind this remap, the cost is
// one round. A placement equal to the current one costs nothing.
func (c *Cluster) Remap(newPos []uint) {
	n := c.NumQubits()
	if uint(len(newPos)) != n {
		panic(fmt.Sprintf("cluster: remap placement has %d entries, want %d", len(newPos), n))
	}
	// The bit at destination position newPos[q] comes from source
	// position pos[q].
	srcOf := make([]uint, n)
	var seen uint64
	changed := false
	for q := uint(0); q < n; q++ {
		p := newPos[q]
		if p >= n {
			panic(fmt.Sprintf("cluster: remap position %d out of range for %d qubits", p, n))
		}
		if seen&(1<<p) != 0 {
			panic("cluster: remap placement is not a permutation")
		}
		seen |= 1 << p
		srcOf[p] = c.pos[q]
		if c.pos[q] != p {
			changed = true
		}
	}
	if !changed {
		return
	}
	c.permuteBits(srcOf)
	copy(c.pos, newPos)
}

// Canonicalize restores the identity placement (logical qubit q at
// physical position q), paying one remap round if the placement drifted.
// The emulation collectives (distributed FFT, basis-state permutations)
// and the samplers require canonical layout; the gate engine does not.
func (c *Cluster) Canonicalize() {
	if c.identityPlacement() {
		return
	}
	ident := make([]uint, c.NumQubits())
	for q := range ident {
		ident[q] = uint(q)
	}
	c.Remap(ident)
}
