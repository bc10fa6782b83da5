package cluster

import (
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/fft"
)

// The distributed Fourier lowering: one function for every Fourier field
// [pos, pos+w) of the register, the full register included.
//
// A field that fits a shard (w <= L) is made node-local by at most one
// remap and transformed fibre by fibre on every shard.
//
// A wider field is the four-step factorisation (Bailey's FFT) with the
// split N = 2^n1 * 2^n2 chosen by the layout: n1 = pos+w-L field bits sit
// on node positions, the other n2 = L-pos at shard positions [pos, L).
// Only the n1 node bits are ever remote, so only they move:
//
//	(1) one remap, from whatever placement the register is in, swaps
//	    them with the qubits at shard positions [L-n1, L); from the
//	    canonical layout the low L-n1 positions stay put, so the mover
//	    copies whole runs;
//	(2) every shard applies the unitary 2^n1-point DFT there — one dense
//	    block up to denseDFTBits node bits, a transform of the shard
//	    beyond — turning the high field index f1 into k1;
//	(3) a second remap, the same swap, restores the canonical layout;
//	(4) node p, whose low n1 node bits now read k1, multiplies in its
//	    twiddle exp(±2πi·k1·f2/2^w), f2 being the shard offset >> pos,
//	    and transforms its own f2 fibres into k2 (one TransformField of
//	    2^n2 points at pos);
//	(5) the output index k = k1 + 2^n1·k2 has its low n1 bits on node
//	    positions and its high n2 bits at [pos, L): the lowering leaves
//	    that as the placement, moving nothing.
//
// So the transform pays two all-to-alls. The third of Eq. 5 is paid by
// whatever next needs the canonical layout — a gate schedule, the
// sampler, a permutation — as its Canonicalize; another Fourier op, a
// diagonal or Gather reads the relabelled placement as it is. The
// lowering needs n1 <= L, which for the full register is P <= 2^(n/2).

// denseDFTBits is the most node bits whose DFT runs as one dense block.
// A block costs 2^n1 multiplies per amplitude against the n1 butterflies
// of a strided shard transform; timed on EmulateQFT (2 vCPUs, AVX-512)
// the block is as fast or faster up to n1 = 6 (n = 22, P = 64: 69-71 ms
// against 82-94 ms) and 1.1-2.5x slower at n1 = 7 and 8.
const denseDFTBits = 6

// EmulateQFT performs the quantum Fourier transform of the paper's Eq. 4
// on the whole register — the emulator's Figure 3 path on the cluster
// substrate. On one node it is a plain transform of the shard; on several
// it is the distributed lowering above, two all-to-alls with the output
// order left in the placement.
func (c *Cluster) EmulateQFT() error { return c.distributedFFTField(0, c.NumQubits(), false) }

// distributedFFTField applies the unitary Fourier transform (inverse:
// its adjoint) to the logical field [pos, pos+w), whatever the current
// placement.
func (c *Cluster) distributedFFTField(pos, w uint, inverse bool) error {
	if w <= c.L {
		plan, err := fft.NewPlan(uint64(1) << w)
		if err != nil {
			return err
		}
		// One remap makes the field bits shard-local at physical
		// positions [0, w), so the fibres are stride-1.
		c.remapFieldLocal(pos, w)
		workers := c.shardWorkers()
		c.eachNode(func(p int) { plan.TransformField(c.shard(p), 0, inverse, workers) })
		return nil
	}
	L := c.L
	n1 := pos + w - L
	if n1 > L {
		return fmt.Errorf("cluster: field [%d,%d) has %d bits on node positions, shards hold %d",
			pos, pos+w, n1, L)
	}
	n2 := w - n1
	plan, err := fft.NewPlan(uint64(1) << n2)
	if err != nil {
		return err
	}
	sign := 1.0
	if inverse {
		sign = -1
	}

	// (1)-(3): the node field bits, logical L+j, trade places with the
	// logical qubits at shard positions L-n1+j; the 2^n1-point DFT runs
	// there; the swap is undone.
	swapped := append([]uint(nil), c.ident...)
	block := make([]uint, n1)
	for j := uint(0); j < n1; j++ {
		swapped[L+j], swapped[L-n1+j] = L-n1+j, L+j
		block[j] = L - n1 + j
	}
	c.Remap(swapped)
	if n1 <= denseDFTBits {
		dft := unitaryDFT(n1, sign)
		c.eachNode(func(p int) { c.nodes[p].ApplyMatrixN(dft, block) })
	} else {
		blockPlan, err := fft.NewPlan(uint64(1) << n1)
		if err != nil {
			return err
		}
		c.eachNode(func(p int) { blockPlan.TransformField(c.shard(p), L-n1, inverse, 1) })
	}
	c.Canonicalize()

	// (4): twiddle and shard transform, node by node.
	theta := sign * 2 * math.Pi / float64(uint64(1)<<w)
	workers := c.shardWorkers()
	c.eachNode(func(p int) {
		shard := c.shard(p)
		if k1 := uint64(p) & (1<<n1 - 1); k1 != 0 {
			twiddleRuns(shard, pos, theta*float64(k1))
		}
		plan.TransformField(shard, pos, inverse, workers)
	})

	// (5): logical field bit j < n1 is k1's bit j, at node position L+j;
	// bit n1+j is k2's bit j, at shard position pos+j.
	for j := uint(0); j < w; j++ {
		if j < n1 {
			c.pos[pos+j] = L + j
		} else {
			c.pos[pos+j] = pos + j - n1
		}
	}
	return nil
}

// remapFieldLocal installs a placement with logical qubit pos+j at
// physical position j for j < w (one all-to-all remap round, or free when
// already in place), so a width-w field transform can run shard-locally
// with stride-1 fibres. Displaced qubits take the slots the field bits
// vacate.
func (c *Cluster) remapFieldLocal(pos, w uint) {
	if w > c.L {
		panic(fmt.Sprintf("cluster: field of %d qubits cannot be made local on %d-qubit shards", w, c.L))
	}
	n := c.NumQubits()
	newPos := append([]uint(nil), c.pos...)
	// Owner of each physical slot under the evolving assignment.
	owner := make([]uint, n)
	for q := uint(0); q < n; q++ {
		owner[newPos[q]] = q
	}
	for j := uint(0); j < w; j++ {
		q := pos + j
		if newPos[q] == j {
			continue
		}
		displaced := owner[j]
		freed := newPos[q]
		newPos[displaced], owner[freed] = freed, displaced
		newPos[q], owner[j] = j, q
	}
	c.Remap(newPos)
}

// twiddleRuns multiplies run f2 of shard — the 2^pos amplitudes at
// offsets [f2<<pos, (f2+1)<<pos) — by exp(i·step·f2). Successive factors
// advance by one rotation, re-anchored every 256 runs against roundoff
// drift.
//
//qemu:hotpath
func twiddleRuns(shard []complex128, pos uint, step float64) {
	run := uint64(1) << pos
	rot := cmplx.Rect(1, step)
	var w complex128
	for f2 := uint64(0); f2<<pos < uint64(len(shard)); f2++ {
		if f2&255 == 0 {
			w = cmplx.Rect(1, step*float64(f2))
		}
		amps := shard[f2<<pos:][:run]
		for i := range amps {
			amps[i] *= w
		}
		w *= rot
	}
}

// unitaryDFT returns the 2^k-point unitary DFT as a dense row-major
// matrix, entry (r, c) = exp(sign·2πi·r·c/2^k)/√2^k.
func unitaryDFT(k uint, sign float64) []complex128 {
	dim := uint64(1) << k
	scale := 1 / math.Sqrt(float64(dim))
	theta := sign * 2 * math.Pi / float64(dim)
	m := make([]complex128, dim*dim)
	for r := uint64(0); r < dim; r++ {
		for col := uint64(0); col < dim; col++ {
			m[r*dim+col] = cmplx.Rect(scale, theta*float64(r*col%dim))
		}
	}
	return m
}

// shardWorkers is the worker count of a per-shard transform: on several
// nodes the node superstep already shares the host out, one worker per
// node; one node fans out at its shard's own parallelism.
func (c *Cluster) shardWorkers() int {
	if c.P > 1 {
		return 1
	}
	return c.nodes[0].Workers()
}
