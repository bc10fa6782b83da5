package cluster

import (
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/bitops"
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
// Field index f = f2 + 2^n2·f1 and output index k = k1 + 2^n1·k2 give
// exp(±2πi·f·k/2^w) = DFT_n1(f1→k1) · exp(±2πi·k1·f2/2^w) · DFT_n2(f2→k2).
// Only the n1 node bits are ever remote, so only they move:
//
//	(1) one remap, from whatever placement the register is in, swaps
//	    them with the qubits at shard positions [L-n1, L); from the
//	    canonical layout the low L-n1 positions stay put, so the mover
//	    copies whole runs, and a reversed run at the bottom of the shards
//	    — the output order of step (4), say — is undone in place before
//	    anything moves (Remap);
//	(2) one computing exchange (exchangeDFT): every shard holds all 2^n1
//	    values of f1 for each of its positions, computes their DFT into
//	    k1 (in registers up to two node bits, with the shared fft plan
//	    beyond), multiplies output k1 by its twiddle exp(±2πi·k1·f2/2^w)
//	    and writes it straight to node k1's scratch shard in contiguous
//	    rows, where the swap back to the canonical layout would have put
//	    it. It moves, and is charged, what that swap back moves;
//	(3) every shard transforms its own f2 fibres into k2 (2^n2 points at
//	    pos): at pos 0 as the DIF network alone (bit-reversed out),
//	    higher up in natural order;
//	(4) the output index has its low n1 bits on node positions and its
//	    high n2 bits at [pos, L) — reversed after the DIF network — and
//	    the lowering leaves that as the placement, moving nothing.
//
// So the transform pays two all-to-alls and one network over the state,
// with the node-bit DFT and the twiddle riding the second exchange. The
// third all-to-all of Eq. 5 is paid by whatever next needs the canonical
// layout — a gate schedule, a permutation — as its Canonicalize, which
// undoes reversed k2 bits in place first; another Fourier op, a
// diagonal, the probabilities, the multi-node sampler or Gather reads the
// relabelled placement as it is. The lowering needs n1 <= L, which for
// the full register is P <= 2^(n/2).

// EmulateQFT performs the quantum Fourier transform of the paper's Eq. 4
// on the whole register — the emulator's Figure 3 path on the cluster
// substrate. On one node it is one DIF network over the shard, the
// output order left in the placement; on several it is the distributed
// lowering above, two all-to-alls and one network, with the output order
// left in the placement.
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
		bit, order := uint(0), fft.Natural
		switch base, lies := c.fieldOrder(pos, w); {
		case lies == fieldAscending && base == 0:
			order = fft.ReversedOut
		case lies == fieldAscending:
			bit = base
		case lies == fieldReversed:
			order = fft.ReversedIn
		default:
			c.remapFieldLocal(pos, w)
		}
		// Set after the remap, whose in-place reversal uses c.op.
		c.op.bit, c.op.inverse, c.op.plan, c.op.order = bit, inverse, plan, order
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

	// (1): the node field bits, logical L+j, trade places with the logical
	// qubits at shard positions L-n1+j.
	swapped := c.swapped
	copy(swapped, c.ident)
	for j := uint(0); j < n1; j++ {
		swapped[L+j], swapped[L-n1+j] = L-n1+j, L+j
	}
	c.Remap(swapped)

	// (2): the node-bit DFT and the twiddle on the way to node k1.
	if err := c.exchangeDFT(pos, w, n1, inverse); err != nil {
		return err
	}

	// (3): the shard transform of f2 into k2, the DIF network alone at
	// pos 0.
	c.op.bit, c.op.inverse, c.op.plan, c.op.order = pos, inverse, plan, fft.Natural
	if pos == 0 {
		c.op.order = fft.ReversedOut
	}
	c.each(transformShard)
	c.op.plan = nil

	// (4): logical field bit j < n1 is k1's bit j, at node position L+j;
	// bit n1+j is k2's bit j, at shard position pos+j — or, reversed by
	// the DIF network, n2-1-j.
	copy(c.pos, c.ident)
	for j := uint(0); j < w; j++ {
		switch {
		case j < n1:
			c.pos[pos+j] = L + j
		case pos == 0:
			c.pos[j] = n2 - 1 - (j - n1)
		default:
			c.pos[pos+j] = pos + j - n1
		}
	}
	return nil
}

// dftBlockAmps is how many outputs the computing exchange produces per
// block of positions: a block's inputs, twiddle table rows and outputs
// stay in L1 and L2 while it is written out.
const dftBlockAmps = 1 << 10

// dftScratch is the computing exchange's state: the shape and twiddle
// table of the call in flight, and each node's block buffer and
// destination rows, kept across calls so that a transform after the first
// allocates nothing.
type dftScratch struct {
	// n1 node bits, rowLog = L-n1 (log2 of the positions R of a source
	// node), the field's pos, and block positions per block.
	n1, rowLog, pos uint
	block           uint64
	inverse         bool
	// Output k1 at block entry i is multiplied by
	// scale·exp(i·theta·k1·f2) · tab[k1·block+i], f2 the twiddle index of
	// the block's first position; scale is 1 where plan, unitary already,
	// transforms the block.
	scale, theta float64
	tab          []complex128
	tabFor       tabKey
	// plan is the shared 2^n1-point plan past two node bits, nil up to
	// two (exchangeRadix).
	plan *fft.Plan
	// bufs[p] is node p's block buffer; rows holds 2^n1 destination rows
	// per node; dst is the scratch set.
	bufs [][]complex128
	rows [][]complex128
	dst  [][]complex128
}

// tabKey names the exchange a twiddle table was built for.
type tabKey struct {
	w, n1, pos uint
	inverse    bool
}

// exchangeDFT is the four-step's computing exchange. It starts from the
// swapped layout step (1) leaves, f1 at shard positions [L-n1, L): node s
// holds all 2^n1 values of f1 for each of its R = 2^(L-n1) positions o,
// at offset o + R·f1, and its low n1 node bits are the qubits the swap
// displaced. Each node computes, position by position, the unitary
// 2^n1-point DFT of f1 into k1, multiplies output k1 by
// exp(±2πi·k1·f2/2^w), and writes it to node k1 (the high node bits kept)
// as one contiguous row at offset R·s_lo + o: the canonical layout the
// swap back would have installed. The exchange moves what that swap moves
// and is charged as it.
func (c *Cluster) exchangeDFT(pos, w, n1 uint, inverse bool) error {
	d := &c.dft
	F := uint64(1) << n1
	d.n1, d.rowLog, d.pos, d.inverse = n1, c.L-n1, pos, inverse
	d.block = min(uint64(1)<<d.rowLog, max(uint64(dftBlockAmps)>>n1, 1))
	d.scale, d.plan = 1/math.Sqrt(float64(F)), nil
	if n1 > 2 {
		plan, err := fft.NewPlan(F)
		if err != nil {
			return err
		}
		d.scale, d.plan = 1, plan
	}
	sign := 1.0
	if inverse {
		sign = -1
	}
	d.theta = sign * 2 * math.Pi / float64(uint64(1)<<w)
	// Within a block position i's twiddle index is f2 + i>>pos: a block
	// lies within a run of 2^pos positions or holds whole ones.
	if key := (tabKey{w, n1, pos, inverse}); key != d.tabFor {
		need := F * d.block
		if uint64(cap(d.tab)) < need {
			d.tab = make([]complex128, need)
		}
		d.tab = d.tab[:need]
		for k1 := range F {
			for i := range d.block {
				d.tab[k1*d.block+i] = cmplx.Rect(1, d.theta*float64(k1*(i>>pos)))
			}
		}
		d.tabFor = key
	}
	if need := F * d.block; len(d.bufs) == 0 || uint64(len(d.bufs[0])) < need {
		d.bufs = make([][]complex128, c.P)
		for p := range d.bufs {
			d.bufs[p] = make([]complex128, need)
		}
	}
	if need := uint64(c.P) * F; uint64(len(d.rows)) < need {
		d.rows = make([][]complex128, need)
	}

	c.fresh = false
	d.dst = c.grabScratch()
	c.each(exchangeNode)
	c.installShards(d.dst)
	d.dst = nil
	c.charge(c.planFor(c.swapped))
	return nil
}

// exchangeNode is node s's share of exchangeDFT, a block of positions at
// a time: up to two node bits in registers (exchangeRadix), beyond that
// through the shared plan (exchangeBlock).
//
//qemu:hotpath
func exchangeNode(c *Cluster, s int) {
	d := &c.dft
	src := c.shard(s)
	n1, F, R := d.n1, uint64(1)<<d.n1, uint64(1)<<d.rowLog
	lo, hi := uint64(s)&(F-1), uint64(s)>>n1
	rows := d.rows[uint64(s)*F:][:F]
	for k1 := range rows {
		rows[k1] = d.dst[uint64(k1)|hi<<n1][lo*R:][:R]
	}
	C := d.block
	for o := uint64(0); o < R; o += C {
		f2 := (o + lo*R) >> d.pos
		if d.plan == nil {
			exchangeRadix(d, src, rows, o, f2)
			continue
		}
		exchangeBlock(d, src, d.bufs[s][:F*C], rows, o, f2)
	}
}

// exchangeRadix computes, in registers, the 2- or 4-point DFT of the
// block at o, reading each f1 value where it lies, and writes output k1
// to its row times its twiddle, a table entry times the row's block base.
// The butterflies are the forward ones; the inverse's output k is the
// forward's output -k mod 2^n1.
//
//qemu:hotpath
func exchangeRadix(d *dftScratch, src []complex128, rows [][]complex128, o, f2 uint64) {
	F, R, C, sc := uint64(len(rows)), uint64(1)<<d.rowLog, d.block, d.scale
	var out, tw [4][]complex128
	var base [4]complex128
	for m := range F {
		r := m
		if d.inverse {
			r = -m & (F - 1)
		}
		out[m], tw[m] = rows[r][o:][:C], d.tab[r*C:][:C]
		base[m] = cmplx.Rect(sc, d.theta*float64(r*f2))
	}
	switch F {
	case 2:
		s0, s1 := src[o:][:C], src[R+o:][:C]
		d0, d1, t1, b1 := out[0][:C], out[1][:C], tw[1][:C], base[1]
		for i, a := range s0 {
			b := s1[i]
			y := a + b
			d0[i] = complex(sc*real(y), sc*imag(y))
			d1[i] = (a - b) * (b1 * t1[i])
		}
	case 4:
		s0, s1, s2, s3 := src[o:][:C], src[R+o:][:C], src[2*R+o:][:C], src[3*R+o:][:C]
		d0, d1, d2, d3 := out[0][:C], out[1][:C], out[2][:C], out[3][:C]
		t1, t2, t3 := tw[1][:C], tw[2][:C], tw[3][:C]
		b1, b2, b3 := base[1], base[2], base[3]
		for i, a := range s0 {
			b, e, g := s1[i], s2[i], s3[i]
			p, q := a+e, a-e
			r, v := b+g, b-g
			v = complex(-imag(v), real(v)) // i·(x1-x3)
			y := p + r
			d0[i] = complex(sc*real(y), sc*imag(y))
			d1[i] = (q + v) * (b1 * t1[i])
			d2[i] = (p - r) * (b2 * t2[i])
			d3[i] = (q - v) * (b3 * t3[i])
		}
	}
}

// exchangeBlock transforms the block at o with the shared 2^n1-point
// plan: each position's f1 values are gathered, bit-reversed, into one
// contiguous fibre of in, the fibres run the DIT network alone (natural
// out, no reordering pass), and output k1 of each is written to its row
// times its twiddle.
//
//qemu:hotpath
func exchangeBlock(d *dftScratch, src, in []complex128, rows [][]complex128, o, f2 uint64) {
	F, R, C := uint64(len(rows)), uint64(1)<<d.rowLog, d.block
	for f1 := range F {
		at := bitops.ReverseBits(f1, d.n1)
		for i, a := range src[f1*R+o:][:C] {
			in[uint64(i)*F+at] = a
		}
	}
	d.plan.Transform(in, d.inverse, fft.ReversedIn, 1)
	for k1, row := range rows {
		out, tw := row[o:][:C], d.tab[uint64(k1)*C:][:C]
		b := cmplx.Rect(1, d.theta*float64(uint64(k1)*f2))
		for i := range out {
			out[i] = in[uint64(i)*F+uint64(k1)] * (b * tw[i])
		}
	}
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

// shardWorkers is the worker count of a per-shard transform: on several
// nodes the node superstep already shares the host out, one worker per
// node; one node fans out at its shard's own parallelism.
func (c *Cluster) shardWorkers() int {
	if c.P > 1 {
		return 1
	}
	return c.nodes[0].Workers()
}
