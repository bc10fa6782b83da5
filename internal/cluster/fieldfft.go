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
// A field that fits a shard (w <= L) transforms fibre by fibre on every
// shard, in the order the placement gives it (fieldOrder):
//
//   - ascending at physical [0, w): the DIF network alone (S·F, natural in,
//     bit-reversed out), and the placement records the field reversed;
//   - recorded reversed at [0, w): the DIT network alone (F·S), and the
//     placement is restored — so a transform and its inverse, on one node
//     or on several, pay two networks and no reordering pass;
//   - ascending and node-local higher up: a natural-order transform where
//     the field lies;
//   - anything else: one remap makes the field node-local at [0, w), then
//     a natural-order transform.
//
// Whatever next needs the canonical layout and finds only a field
// reversed at [0, w) undoes it shard by shard in place (Canonicalize).
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
// whatever next needs the canonical layout — a gate schedule, a
// permutation — as its Canonicalize; another Fourier op, a diagonal, the
// probabilities, the multi-node sampler or Gather reads the relabelled
// placement as it is. The lowering needs n1 <= L, which for the full
// register is P <= 2^(n/2).

// denseDFTBits is the most node bits whose DFT runs as one dense block.
// A block costs 2^n1 multiplies per amplitude against the n1 butterflies
// of a strided shard transform; timed on EmulateQFT (2 vCPUs, AVX-512)
// the block is as fast or faster up to n1 = 6 (n = 22, P = 64: 69-71 ms
// against 82-94 ms) and 1.1-2.5x slower at n1 = 7 and 8.
const denseDFTBits = 6

// EmulateQFT performs the quantum Fourier transform of the paper's Eq. 4
// on the whole register — the emulator's Figure 3 path on the cluster
// substrate. On one node it is one DIF network over the shard, the
// output order left in the placement; on several it is the distributed
// lowering above, two all-to-alls with the output order left in the
// placement.
func (c *Cluster) EmulateQFT() error {
	c.fresh = false
	return c.distributedFFTField(0, c.NumQubits(), false)
}

// distributedFFTField applies the unitary Fourier transform (inverse:
// its adjoint) to the logical field [pos, pos+w), whatever the current
// placement.
func (c *Cluster) distributedFFTField(pos, w uint, inverse bool) error {
	if w <= c.L {
		plan, err := fft.NewPlan(uint64(1) << w)
		if err != nil {
			return err
		}
		c.op.bit, c.op.inverse, c.op.plan, c.op.order = 0, inverse, plan, fft.Natural
		switch base, order := c.fieldOrder(pos, w); {
		case order == fieldAscending && base == 0:
			c.op.order = fft.ReversedOut
		case order == fieldAscending:
			c.op.bit = base
		case order == fieldReversed:
			c.op.order = fft.ReversedIn
		default:
			c.remapFieldLocal(pos, w)
		}
		c.each(transformShard)
		if c.op.order != fft.Natural {
			// DIF leaves the field reversed; DIT restores a reversed one.
			c.reverseFieldPlacement(pos, w)
		}
		c.op.plan = nil
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

// Field orders fieldOrder reports.
const (
	fieldOther     = iota
	fieldAscending // logical pos+j at physical base+j, all node-local
	fieldReversed  // logical pos+j at physical w-1-j
)

// fieldOrder reports how the logical field [pos, pos+w) lies under the
// current placement: ascending from physical base with every bit
// node-local, reversed at physical [0, w), or neither. A one-qubit field
// at physical 0 is ascending.
func (c *Cluster) fieldOrder(pos, w uint) (base uint, order int) {
	base = c.pos[pos]
	ascending, reversed := base+w <= c.L, base == w-1
	for j := uint(1); j < w; j++ {
		p := c.pos[pos+j]
		ascending = ascending && p == base+j
		reversed = reversed && p == w-1-j
	}
	switch {
	case ascending:
		return base, fieldAscending
	case reversed:
		return 0, fieldReversed
	}
	return 0, fieldOther
}

// transformShard transforms node p's shard along the field at physical
// [c.op.bit, c.op.bit+w) in c.op.order with c.op.plan: contiguous fibres
// at bit 0, strided ones above (natural order only).
func transformShard(c *Cluster, p int) {
	if c.op.bit == 0 {
		c.op.plan.Transform(c.shard(p), c.op.inverse, c.op.order, c.shardWorkers())
		return
	}
	c.op.plan.TransformField(c.shard(p), c.op.bit, c.op.inverse, c.shardWorkers())
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
// offsets [f2<<pos, (f2+1)<<pos) — by exp(i·step·f2). The factor is a
// table entry exp(i·step·k) for the run's place k in its block of 256
// times the block's base exp(i·step·(f2-k)): no factor waits on the one
// before it, and none is more than two roundings from exact.
//
//qemu:hotpath
func twiddleRuns(shard []complex128, pos uint, step float64) {
	run := uint64(1) << pos
	runs := uint64(len(shard)) >> pos
	var tab [256]complex128
	for k := range min(runs, uint64(len(tab))) {
		tab[k] = cmplx.Rect(1, step*float64(k))
	}
	for f2 := uint64(0); f2 < runs; f2 += uint64(len(tab)) {
		base := cmplx.Rect(1, step*float64(f2))
		ws := tab[:min(runs-f2, uint64(len(tab)))]
		if run == 1 {
			// One amplitude a run, the field at bit 0: a plain sweep.
			for k, a := range shard[f2 : f2+uint64(len(ws))] {
				shard[f2+uint64(k)] = a * (base * ws[k])
			}
			continue
		}
		for k, t := range ws {
			w := base * t
			amps := shard[(f2+uint64(k))<<pos:][:run]
			for i := range amps {
				amps[i] *= w
			}
		}
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
