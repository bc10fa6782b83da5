package cluster

import (
	"fmt"

	"repro/internal/fft"
)

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
	srcOf := c.srcOf
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
	c.fresh = false
	c.permuteBits(srcOf)
	copy(c.pos, newPos)
}

// Canonicalize restores the identity placement (logical qubit q at
// physical position q), paying one remap round if the placement drifted.
// Basis-state permutations, schedules and the samplers require the
// canonical layout; the gate engine, the diagonals and the Fourier
// lowering do not, and a Fourier op leaves its output order drifted for
// the next Canonicalize to pay. When the only drift is a field reversed
// at physical [0, w) — what a shard-local Fourier op leaves — every shard
// reverses its fibres in place with fft's blocked reversal, which moves
// nothing between nodes and costs no round.
func (c *Cluster) Canonicalize() {
	if c.identityPlacement() {
		return
	}
	if w, ok := c.reversedLowField(); ok {
		c.op.bit = w
		c.each(func(c *Cluster, p int) { fft.Reverse(c.shard(p), c.op.bit, c.shardWorkers()) })
		copy(c.pos, c.ident)
		return
	}
	c.Remap(c.ident)
}

// reversedLowField reports whether the placement is the identity but for
// the logical field [0, w), w >= 2, lying reversed at physical [0, w).
func (c *Cluster) reversedLowField() (uint, bool) {
	w := c.pos[0] + 1
	if w < 2 || w > c.L {
		return 0, false
	}
	for q, p := range c.pos {
		want := uint(q)
		if want < w {
			want = w - 1 - want
		}
		if p != want {
			return 0, false
		}
	}
	return w, true
}
