package cluster

import (
	"fmt"
	"slices"

	"repro/internal/fft"
)

// Remap installs a new logical→physical placement with one batched
// all-to-all (permuteBits): each amplitude is read and written exactly
// once, and the network is charged for every amplitude that changed
// nodes, coalesced into one message per communicating (src, dst) pair.
// This is the communication-avoiding primitive: however many
// remote-qubit gates the scheduler batched behind this remap, the cost is
// one round. A placement equal to the current one costs nothing. A
// reversed run at the bottom of the shards that the new placement does
// not keep is undone in place first (undoLowRun).
func (c *Cluster) Remap(newPos []uint) {
	n := c.NumQubits()
	if uint(len(newPos)) != n {
		panic(fmt.Sprintf("cluster: remap placement has %d entries, want %d", len(newPos), n))
	}
	var seen uint64
	for _, p := range newPos {
		if p >= n {
			panic(fmt.Sprintf("cluster: remap position %d out of range for %d qubits", p, n))
		}
		if seen&(1<<p) != 0 {
			panic("cluster: remap placement is not a permutation")
		}
		seen |= 1 << p
	}
	if slices.Equal(newPos, c.pos) {
		return
	}
	c.fresh = false
	c.undoLowRun(newPos)
	if slices.Equal(newPos, c.pos) {
		return
	}
	// The bit at destination position newPos[q] comes from source
	// position pos[q].
	srcOf := c.srcOf
	for q, p := range newPos {
		srcOf[p] = c.pos[q]
	}
	c.permuteBits(srcOf)
	copy(c.pos, newPos)
}

// Canonicalize restores the identity placement (logical qubit q at
// physical position q), paying one remap round if the placement drifted.
// Basis-state permutations, schedules and the samplers require the
// canonical layout; the gate engine, the diagonals and the Fourier
// lowering do not, and a Fourier op leaves its output order drifted for
// the next Canonicalize to pay. A reversed run at physical [0, m) — what
// a shard-local Fourier op's DIF network leaves, or the four-step's
// reversed output bits — is undone shard by shard in place first, which
// moves nothing between nodes; when that was the only drift, as after a
// shard-local op, no round is paid at all.
func (c *Cluster) Canonicalize() {
	c.Remap(c.ident)
}

// undoLowRun reverses, in place on every shard, a descending run of
// logical qubits at the bottom of the shards — physical j holding logical
// t-j for j < m, m >= 2 — unless newPos, the placement about to be
// installed, keeps its top qubit t at physical 0. The out-of-place mover
// reverses low bits at several times the cost of fft's blocked reversal
// (BenchmarkMoveBits' reversal rows), so the move that follows starts
// with the run ascending. It moves nothing between nodes and charges
// nothing.
func (c *Cluster) undoLowRun(newPos []uint) {
	m, top := c.lowRun()
	if m < 2 || newPos[top] == 0 {
		return
	}
	c.op.bit = m
	c.each(func(c *Cluster, p int) { fft.Reverse(c.shard(p), c.op.bit, c.shardWorkers()) })
	for j := uint(0); j < m; j++ {
		c.pos[top-j] = m - 1 - j
	}
}

// lowRun returns the length m of the descending run of logical qubits at
// physical [0, m), at most L, and the logical qubit top at physical 0:
// physical j holds logical top-j for j < m.
func (c *Cluster) lowRun() (m, top uint) {
	if c.L == 0 {
		return 0, 0
	}
	var at [64]uint
	for q, p := range c.pos {
		at[p] = uint(q)
	}
	top = at[0]
	m = 1
	for m < c.L && m <= top && at[m] == top-m {
		m++
	}
	return m, top
}
