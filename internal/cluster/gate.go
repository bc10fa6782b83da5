package cluster

import (
	"repro/internal/bitops"
	"repro/internal/circuit"
	"repro/internal/gates"
	"repro/internal/statevec"
)

// ApplyGate executes one gate on the distributed state, under the current
// qubit placement. Gates whose target sits in a node-local position never
// communicate: each node applies the gate to its shard through the
// structure-specialised statevec kernels (which also enforce the kernel
// validation contract). Gates targeting a node-selecting position require
// a pairwise shard exchange — unless the gate's full matrix is diagonal
// and DiagonalOptimization is on, in which case every node just scales its
// own amplitudes (the communication saving of Figure 4).
//
// ApplyGate is the per-gate baseline; RunSchedule batches remote-qubit
// gates into all-to-all remap rounds instead.
func (c *Cluster) ApplyGate(g gates.Gate) {
	// The statevec kernels only ever see shard-local (physical < L)
	// qubits, so the full validation contract — same panics, same
	// messages — is enforced here on the logical indices first.
	statevec.CheckTargetControls(c.NumQubits(), g.Target, g.Controls)
	c.fresh = false

	// Map through the placement; split controls into shard-local positions
	// (in the Cluster's scratch) and node-selecting bits (a remote control
	// costs nothing: it just decides which nodes participate).
	t := c.pos[g.Target]
	localControls := c.ctl[:0]
	var nodeControlMask uint64
	for _, ctl := range g.Controls {
		if p := c.pos[ctl]; p < c.L {
			localControls = append(localControls, p)
		} else {
			nodeControlMask |= uint64(1) << (p - c.L)
		}
	}

	if t < c.L {
		c.applyLocalTarget(g, t, localControls, nodeControlMask)
		return
	}
	if c.DiagonalOptimization && g.IsDiagonalOnState() {
		c.applyNodeDiagonal(g, t-c.L, localControls, nodeControlMask)
		return
	}
	c.applyNodeTargetExchange(g, t-c.L, localControls, nodeControlMask)
}

// Run executes a whole circuit gate by gate — the naive engine, one
// communication round per remote-qubit gate. It is kept as the measured
// baseline the scheduled engine (RunSchedule) is compared against.
func (c *Cluster) Run(circ *circuit.Circuit) {
	for _, g := range circ.Gates {
		c.ApplyGate(g)
	}
}

// applyLocalTarget runs the gate inside each shard that satisfies the
// node-level controls. With DiagonalOptimization on, the structure-
// specialised statevec kernels run; with it off the shards use the dense
// generic kernel for every gate, preserving the qHiPSTER-class baseline
// configuration Figure 4 measures against (structure-blind locally, one
// exchange per remote gate).
func (c *Cluster) applyLocalTarget(g gates.Gate, t uint, localControls []uint, nodeControlMask uint64) {
	c.op.gate = gates.Gate{Name: g.Name, Matrix: g.Matrix, Target: t, Controls: localControls}
	c.op.mask = nodeControlMask
	c.each(func(c *Cluster, p int) {
		if uint64(p)&c.op.mask != c.op.mask {
			return
		}
		if c.DiagonalOptimization {
			c.nodes[p].ApplyGate(c.op.gate)
		} else {
			c.nodes[p].ApplyGateGeneric(c.op.gate)
		}
	})
}

// applyNodeDiagonal handles a diagonal gate on a node-selecting position
// without any communication: node p's amplitudes all share target bit
// value bit(p, tbit), so the node multiplies its whole (control-
// satisfying) shard by d0 or d1.
func (c *Cluster) applyNodeDiagonal(g gates.Gate, tbit uint, localControls []uint, nodeControlMask uint64) {
	c.op.gate = gates.Gate{Matrix: g.Matrix, Controls: localControls}
	c.op.bit, c.op.mask = tbit, nodeControlMask
	c.each(func(c *Cluster, p int) {
		if uint64(p)&c.op.mask != c.op.mask {
			return
		}
		d := c.op.gate.Matrix[0]
		if bitops.Bit(uint64(p), c.op.bit) == 1 {
			d = c.op.gate.Matrix[3]
		}
		if d == 1 {
			return
		}
		ctl := c.op.gate.Controls
		if len(ctl) == 0 {
			c.nodes[p].Scale(d)
			return
		}
		// Scaling exactly the control-satisfying amplitudes is a diagonal
		// phase conditioned on the first local control, with the rest as
		// kernel controls: diag(1, d) touches only the all-controls-set
		// subspace.
		c.nodes[p].ApplyControlledDiag(1, d, ctl[0], ctl[1:])
	})
}

// applyNodeTargetExchange handles a gate on a node-selecting position the
// expensive way: each node pair differing in the target node bit exchanges
// shards, then each member computes its half of the 2x2 update. One
// communication round per gate. The target bit is never a control bit, and
// the remaining node control bits agree across a pair, so the pair's 0 side
// decides whether it takes part.
func (c *Cluster) applyNodeTargetExchange(g gates.Gate, tbit uint, localControls []uint, nodeControlMask uint64) {
	c.op.gate.Matrix = g.Matrix
	c.op.cmask = bitops.ControlMask(localControls)
	c.exchangePairs(tbit, nodeControlMask, func(c *Cluster, _ int, old0, old1, s0, s1 []complex128) {
		cmask, m := c.op.cmask, &c.op.gate.Matrix
		for i := range s0 {
			if uint64(i)&cmask != cmask {
				continue
			}
			a0, a1 := old0[i], old1[i]
			s0[i] = m[0]*a0 + m[1]*a1
			s1[i] = m[2]*a0 + m[3]*a1
		}
	})
}

// exchangePairs runs pair for every node pair (p0, p0|1<<tbit) whose p0
// has every bit of mask set, once the pair has exchanged shards: old0 and
// old1 are the two shards as they were (receive buffers from the retired
// scratch set — no allocation), s0 and s1 the live shards the members
// write their halves of the update to. pair captures nothing; its
// operands ride in c.op like any superstep body's. One communication
// round.
func (c *Cluster) exchangePairs(tbit uint, mask uint64, pair func(c *Cluster, p0 int, old0, old1, s0, s1 []complex128)) {
	c.op.dst = c.grabScratch()
	c.op.bit, c.op.mask, c.op.pair = tbit, mask, pair
	c.each(func(c *Cluster, p0 int) {
		if bitops.Bit(uint64(p0), c.op.bit) == 1 || uint64(p0)&c.op.mask != c.op.mask {
			return // pairs are enumerated from the 0 side
		}
		p1 := p0 | 1<<c.op.bit
		bufs := c.op.dst
		c.exchangeShards(p0, p1, bufs[p0], bufs[p1])
		c.op.pair(c, p0, bufs[p0], bufs[p1], c.shard(p0), c.shard(p1))
	})
	c.op.dst = nil
	c.Stats.Rounds.Add(1)
}

// exchangeShards copies the full shards of nodes a and b into the supplied
// receive buffers, charging the network for both transfers. The copies are
// real work (memcpy through the emulated interconnect), so measured wall
// time scales with bytes moved like the modeled time does.
func (c *Cluster) exchangeShards(a, b int, bufA, bufB []complex128) {
	copy(bufA, c.shard(a))
	copy(bufB, c.shard(b))
	bytes := uint64(len(bufA)+len(bufB)) * 16
	c.Stats.BytesSent.Add(bytes)
	c.Stats.Messages.Add(2)
	c.Stats.Exchanges.Add(1)
}
