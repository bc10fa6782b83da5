package recognize

import (
	"math/cmplx"

	"repro/internal/circuit"
	"repro/internal/fft"
	"repro/internal/gates"
	"repro/internal/revlib"
)

// matchEps is the matrix-entry tolerance of the structural matchers: tight
// enough that a QFT ladder with one wrong rotation is rejected, loose
// enough that angles round-tripped through the qasm text format still
// match the regenerated reference.
const matchEps = 1e-12

// matchAt tries every pattern matcher at gate index i, bounded by hi (the
// start of the next annotated region). Matchers are ordered largest
// structure first so a multiplier is not consumed as its first controlled
// adder, and a QFT is not nibbled apart into diagonal runs.
func matchAt(c *circuit.Circuit, i, hi int) *Op {
	if op := matchQFT(c, i, hi); op != nil {
		return op
	}
	if op := matchMultiplier(c, i, hi); op != nil {
		return op
	}
	if op := matchAdder(c, i, hi); op != nil {
		return op
	}
	if op := matchAdderCarryOut(c, i, hi); op != nil {
		return op
	}
	if op := matchPhaseFlip(c, i, hi); op != nil {
		return op
	}
	if op := matchDiagonalRun(c, i, hi); op != nil {
		return op
	}
	return nil
}

// --- gate predicates and window comparison ---------------------------------

// closeC reports |a-b| <= matchEps, comparing the squared distance so no
// square root is taken; a NaN or an infinity is never close.
func closeC(a, b complex128) bool {
	d := a - b
	return real(d)*real(d)+imag(d)*imag(d) <= matchEps*matchEps
}

func sameMatrix(a, b gates.Matrix2) bool {
	return closeC(a[0], b[0]) && closeC(a[1], b[1]) && closeC(a[2], b[2]) && closeC(a[3], b[3])
}

func isPlainH(g gates.Gate) bool {
	return len(g.Controls) == 0 && g.Matrix == gates.MatH
}

func isPlainX(g gates.Gate) bool {
	return len(g.Controls) == 0 && sameMatrix(g.Matrix, gates.MatX)
}

func isCNOT(g gates.Gate) bool {
	return len(g.Controls) == 1 && sameMatrix(g.Matrix, gates.MatX)
}

// isCR reports whether g is a single-controlled phase shift and returns
// e^{i theta} (the phase entry).
func isCR(g gates.Gate) (complex128, bool) {
	if len(g.Controls) != 1 {
		return 0, false
	}
	m := g.Matrix
	if !closeC(m[0], 1) || !closeC(m[1], 0) || !closeC(m[2], 0) {
		return 0, false
	}
	return m[3], true
}

// --- QFT ladders -----------------------------------------------------------

// matchQFT recognises the four Fourier shapes the qft package emits:
// forward/inverse, with or without the final qubit-reversal swaps, on any
// contiguous field. A structural walk over the first ladder row, or the
// first CNOT of an inverse's swap network, proposes the field; each
// candidate is then compared gate for gate with its closed-form network
// (qftShape.match), so a ladder with one wrong angle or a truncated tail is
// rejected outright, and a rejected candidate costs its first mismatch.
func matchQFT(c *circuit.Circuit, i, hi int) *Op {
	gs := c.Gates
	g := gs[i]
	if isPlainH(g) {
		t := g.Target
		// Forward ladder: H(t) then CR(t-1-j, t, pi/2^{j+1}).
		k := 0
		for i+1+k < hi {
			phase, ok := isCR(gs[i+1+k])
			if !ok || gs[i+1+k].Target != t {
				break
			}
			want := uint(k + 1)
			if gs[i+1+k].Controls[0]+want != t {
				break
			}
			if !closeC(phase, crPhase[want]) {
				break
			}
			k++
		}
		if k >= 1 && t >= uint(k) {
			if op := tryQFTVariants(gs, i, hi, t-uint(k), uint(k+1)); op != nil {
				return op
			}
		}
		// Inverse no-swap ladder starts H(pos) then CR(pos, pos+1, -pi/2);
		// the width is whatever the longest fully matching dagger is.
		if i+1 < hi {
			if phase, ok := isCR(gs[i+1]); ok && gs[i+1].Controls[0] == t && gs[i+1].Target == t+1 &&
				closeC(phase, cmplx.Conj(crPhase[1])) {
				bestW, bestEnd := uint(0), 0
				for w := uint(2); t+w <= c.NumQubits; w++ {
					end, ok := qftShape{pos: t, w: w, inverse: true, noswap: true}.match(gs, i, hi)
					if !ok {
						break
					}
					bestW, bestEnd = w, end
				}
				if bestW != 0 {
					return qftOp(i, bestEnd, t, bestW, true, true)
				}
			}
		}
		return nil
	}
	if isCNOT(g) {
		// Inverse with swaps: Circuit(w).Dagger() leads with the reversed
		// swap network; its first CNOT pins (pos, w) per candidate width.
		a, b := g.Controls[0], g.Target
		var best *Op
		for w := uint(2); w <= c.NumQubits; w++ {
			kl := w/2 - 1
			if a < kl {
				continue
			}
			pos := a - kl
			if b != pos+w-1-kl || pos+w > c.NumQubits {
				continue
			}
			if end, ok := (qftShape{pos: pos, w: w, inverse: true}).match(gs, i, hi); ok {
				best = qftOp(i, end, pos, w, true, false)
			}
		}
		return best
	}
	return nil
}

// tryQFTVariants validates a proposed forward field against the no-swap
// ladder and, when it matches, prefers the longer with-swaps form.
func tryQFTVariants(gs []gates.Gate, i, hi int, pos, w uint) *Op {
	end, ok := qftShape{pos: pos, w: w, noswap: true}.match(gs, i, hi)
	if !ok {
		return nil
	}
	if full, ok := (qftShape{pos: pos, w: w}).match(gs, i, hi); ok && full > end {
		return qftOp(i, full, pos, w, false, false)
	}
	return qftOp(i, end, pos, w, false, true)
}

func qftOp(lo, hi int, pos, w uint, inverse, noswap bool) *Op {
	plan, err := fft.NewPlan(uint64(1) << w)
	if err != nil {
		return nil
	}
	return &Op{Lo: lo, Hi: hi, kind: opQFT, pos: pos, width: w,
		inverse: inverse, noswap: noswap, plan: plan}
}

// --- Cuccaro adders and the shift-and-add multiplier -----------------------

// adderMatch is a successfully matched (possibly controlled) Cuccaro adder.
type adderMatch struct {
	a, b  []uint // operand registers, LSB first
	carry uint
	len   int // gates consumed
}

// stripControl removes the expected extra control from a gate's control
// set, reporting failure when it is absent.
func stripControl(g gates.Gate, ec []uint) (gates.Gate, bool) {
	if len(ec) == 0 {
		return g, true
	}
	out := g
	out.Controls = nil
	for _, c := range g.Controls {
		found := false
		for _, e := range ec {
			if c == e {
				found = true
				break
			}
		}
		if !found {
			out.Controls = append(out.Controls, c)
		}
	}
	if len(out.Controls) != len(g.Controls)-len(ec) {
		return g, false
	}
	return out, true
}

// walkMAJSweep walks the MAJ sweep opening a Cuccaro adder (every gate
// promoted with the ec controls) and infers the operand registers and the
// carry ancilla. The inferred width is the longest the stream supports;
// callers validate the full window (and may shrink) against a regenerated
// reference.
func walkMAJSweep(c *circuit.Circuit, i, hi int, ec []uint) (aBits, bBits []uint, carry uint, ok bool) {
	gs := c.Gates
	if i+6 > hi {
		return nil, nil, 0, false
	}
	isXG := func(g gates.Gate, nc int) bool {
		return sameMatrix(g.Matrix, gates.MatX) && len(g.Controls) == nc
	}
	// The first MAJ block is checked before any register is allocated: a
	// lone CNOT, as in a brickwork layer, costs nothing.
	g0, sok := stripControl(gs[i], ec)
	if !sok || !isXG(g0, 1) {
		return nil, nil, 0, false
	}
	a0 := g0.Controls[0]
	g1, sok := stripControl(gs[i+1], ec)
	if !sok || !isXG(g1, 1) || g1.Controls[0] != a0 {
		return nil, nil, 0, false
	}
	carry = g1.Target
	g2, sok := stripControl(gs[i+2], ec)
	if !sok || !isXG(g2, 2) || g2.Target != a0 {
		return nil, nil, 0, false
	}
	aBits = []uint{a0}
	bBits = []uint{g0.Target}
	// Walk further MAJ triples: cnot(a_k, b_k), cnot(a_k, a_{k-1}),
	// ccx(a_{k-1}, b_k, a_k).
	for {
		j := i + 3*len(aBits)
		if j+3 > hi {
			break
		}
		gA, okA := stripControl(gs[j], ec)
		gB, okB := stripControl(gs[j+1], ec)
		gC, okC := stripControl(gs[j+2], ec)
		prev := aBits[len(aBits)-1]
		if !okA || !okB || !okC || !isXG(gA, 1) || !isXG(gB, 1) || !isXG(gC, 2) {
			break
		}
		ak := gA.Controls[0]
		if gB.Controls[0] != ak || gB.Target != prev || gC.Target != ak {
			break
		}
		aBits = append(aBits, ak)
		bBits = append(bBits, gA.Target)
	}
	return aBits, bBits, carry, true
}

// matchAdderWalk walks the MAJ sweep of a Cuccaro adder (every gate
// promoted with the ec controls) to infer the registers, then validates
// the whole window against the regenerated revlib.Adder.
func matchAdderWalk(c *circuit.Circuit, i, hi int, ec []uint) *adderMatch {
	gs := c.Gates
	aBits, bBits, carry, ok := walkMAJSweep(c, i, hi, ec)
	if !ok {
		return nil
	}
	w := uint(len(aBits))
	if !distinctQubits(aBits, bBits, []uint{carry}, ec) {
		return nil
	}
	// Regenerate the reference adder over the inferred layout and demand
	// gate-for-gate equality (this validates the UMA sweep too).
	max := maxQubit(aBits, bBits, []uint{carry}, ec)
	ref := circuit.New(max + 1)
	revlib.Adder(ref, revlib.Register(aBits), revlib.Register(bBits), carry)
	refGates := ref.Gates
	if len(ec) > 0 {
		refGates = ref.Controlled(ec...).Gates
	}
	if !matchNetwork(gs, i, hi, refGates) {
		// The walk may have overshot into a longer candidate than the
		// stream supports; retry shrinking widths.
		for w > 1 {
			w--
			aBits, bBits = aBits[:w], bBits[:w]
			ref = circuit.New(max + 1)
			revlib.Adder(ref, revlib.Register(aBits), revlib.Register(bBits), carry)
			refGates = ref.Gates
			if len(ec) > 0 {
				refGates = ref.Controlled(ec...).Gates
			}
			if matchNetwork(gs, i, hi, refGates) {
				return &adderMatch{a: aBits, b: bBits, carry: carry, len: len(refGates)}
			}
		}
		return nil
	}
	return &adderMatch{a: aBits, b: bBits, carry: carry, len: len(refGates)}
}

// matchAdder recognises an uncontrolled Cuccaro adder as the exact
// permutation b += a + carry.
func matchAdder(c *circuit.Circuit, i, hi int) *Op {
	if !isCNOT(c.Gates[i]) {
		return nil
	}
	ad := matchAdderWalk(c, i, hi, nil)
	if ad == nil {
		return nil
	}
	return &Op{Lo: i, Hi: i + ad.len, kind: opAdd,
		regA: ad.a, regB: ad.b, carry: ad.carry, m: uint(len(ad.a))}
}

// matchAdderCarryOut recognises revlib.AdderWithCarryOut: a Cuccaro MAJ
// sweep, a CNOT copying the final carry out of a's top bit into an extra
// qubit, then the UMA sweep — the permutation b += a + carry with the
// (w+1)-th sum bit XORed into carryOut. The MAJ walk infers the registers;
// the whole window is validated gate for gate against the regenerated
// reference, shrinking the width when the walk overshot.
func matchAdderCarryOut(c *circuit.Circuit, i, hi int) *Op {
	gs := c.Gates
	if !isCNOT(gs[i]) {
		return nil
	}
	aBits, bBits, carry, ok := walkMAJSweep(c, i, hi, nil)
	if !ok {
		return nil
	}
	for w := len(aBits); w >= 1; w-- {
		j := i + 3*w // expected position of the carry-out CNOT
		if j >= hi {
			continue
		}
		g := gs[j]
		if !isCNOT(g) || g.Controls[0] != aBits[w-1] {
			continue
		}
		carryOut := g.Target
		a, b := aBits[:w], bBits[:w]
		if !distinctQubits(a, b, []uint{carry, carryOut}) {
			continue
		}
		ref := circuit.New(maxQubit(a, b, []uint{carry, carryOut}) + 1)
		revlib.AdderWithCarryOut(ref, revlib.Register(a), revlib.Register(b), carry, carryOut)
		if !matchNetwork(gs, i, hi, ref.Gates) {
			continue
		}
		return &Op{Lo: i, Hi: i + len(ref.Gates), kind: opAddc,
			regA: a, regB: b, carry: carry, bz: carryOut, m: uint(w)}
	}
	return nil
}

// matchMultiplier recognises revlib.Multiplier's shape: m controlled
// Cuccaro adders of shrinking width, the k-th adding b's low m-k bits into
// c's top m-k bits under control a_k.
func matchMultiplier(c *circuit.Circuit, i, hi int) *Op {
	gs := c.Gates
	g0 := gs[i]
	if !sameMatrix(g0.Matrix, gates.MatX) || len(g0.Controls) != 2 {
		return nil
	}
	for pick := 0; pick < 2; pick++ {
		ec := g0.Controls[pick]
		first := matchAdderWalk(c, i, hi, []uint{ec})
		if first == nil {
			continue
		}
		m := len(first.a)
		bReg, cReg, carry := first.a, first.b, first.carry
		aReg := []uint{ec}
		pos := i + first.len
		ok := true
		for k := 1; k < m && ok; k++ {
			if pos >= hi {
				ok = false
				break
			}
			// First gate of the k-th controlled adder: X on c[k] with
			// controls {b[0], a_k}; read a_k off it.
			gk := gs[pos]
			if !sameMatrix(gk.Matrix, gates.MatX) || len(gk.Controls) != 2 || gk.Target != cReg[k] {
				ok = false
				break
			}
			var ak uint
			switch {
			case gk.Controls[0] == bReg[0]:
				ak = gk.Controls[1]
			case gk.Controls[1] == bReg[0]:
				ak = gk.Controls[0]
			default:
				ok = false
			}
			if !ok {
				break
			}
			ad := matchAdderWalk(c, pos, hi, []uint{ak})
			if ad == nil || len(ad.a) != m-k || ad.carry != carry ||
				!equalQubits(ad.a, bReg[:m-k]) || !equalQubits(ad.b, cReg[k:]) {
				ok = false
				break
			}
			aReg = append(aReg, ak)
			pos += ad.len
		}
		if !ok || !distinctQubits(aReg, bReg, cReg, []uint{carry}) {
			continue
		}
		return &Op{Lo: i, Hi: pos, kind: opMul,
			regA: aReg, regB: bReg, regC: cReg, carry: carry, m: uint(m)}
	}
	return nil
}

// --- phase flips and diagonal runs -----------------------------------------

// matchPhaseFlip recognises the Grover-oracle shape: a run of X gates, a
// multi-controlled Z, and the mirror X run — a diagonal flipping the sign
// of exactly one bit pattern. A bare multi-controlled Z (>= 2 controls)
// matches with an empty X conjugation.
func matchPhaseFlip(c *circuit.Circuit, i, hi int) *Op {
	gs := c.Gates
	var xs []uint
	var xMask uint64
	j := i
	for j < hi && isPlainX(gs[j]) {
		q := gs[j].Target
		if xMask&(1<<q) != 0 {
			return nil // doubled X is not a conjugation
		}
		xMask |= 1 << q
		xs = append(xs, q)
		j++
	}
	if j >= hi {
		return nil
	}
	z := gs[j]
	if !sameMatrix(z.Matrix, gates.MatZ) {
		return nil
	}
	if len(xs) == 0 && len(z.Controls) < 2 {
		return nil // a lone Z or CZ is already a cheap kernel
	}
	var qMask uint64
	qubits := append([]uint{z.Target}, z.Controls...)
	for _, q := range qubits {
		if qMask&(1<<q) != 0 {
			return nil
		}
		qMask |= 1 << q
	}
	if xMask&^qMask != 0 {
		return nil // an X outside the Z's support is a leftover NOT
	}
	// The mirror X run must cover exactly the same set.
	k := j + 1
	var mirror uint64
	for k < hi && len(xs) > 0 && isPlainX(gs[k]) {
		q := gs[k].Target
		if xMask&(1<<q) == 0 || mirror&(1<<q) != 0 {
			break
		}
		mirror |= 1 << q
		k++
		if mirror == xMask {
			break
		}
	}
	if mirror != xMask {
		return nil
	}
	// Pattern: qubit reads 0 where X-conjugated, 1 elsewhere.
	var value uint64
	for idx, q := range qubits {
		if xMask&(1<<q) == 0 {
			value |= 1 << uint(idx)
		}
	}
	op := &Op{Lo: i, Hi: k, kind: opPhaseFlip}
	op.qubits, op.value = sortedPattern(qubits, value)
	return op
}

// matchDiagonalRun folds a run of diagonal-on-state gates over a bounded
// support into one precomputed diagonal — the fused-oracle shortcut.
func matchDiagonalRun(c *circuit.Circuit, i, hi int) *Op {
	gs := c.Gates
	var support uint64
	width := 0
	j := i
	for j < hi {
		g := gs[j]
		if !g.IsDiagonalOnState() {
			break
		}
		ns := support | 1<<g.Target
		for _, q := range g.Controls {
			ns |= 1 << q
		}
		nw := popcount(ns)
		if nw > MaxDiagQubits {
			break
		}
		support, width = ns, nw
		j++
	}
	if j-i < MinDiagGates || width == 0 {
		return nil
	}
	qubits := make([]uint, 0, width)
	var local [64]uint
	for q := uint(0); q < 64; q++ {
		if support&(1<<q) != 0 {
			local[q] = uint(len(qubits))
			qubits = append(qubits, q)
		}
	}
	return &Op{Lo: i, Hi: j, kind: opDiag, qubits: qubits, diag: diagTable(gs[i:j], &local, width)}
}

// diagTable folds the diagonal gates gs into one table over width local
// qubits, qubit q becoming bit local[q]. The gates commute, so the table
// is built in product form first: each one-qubit gate multiplies into a
// pair of factors of its bit (bit clear, bit set), and each controlled
// phase — one control, its first element exactly 1 — into a phase of its
// pair of bits, applied where both are set. The table then grows by
// doubling over the bits: at bit k the upper half is the lower half times
// that bit's set factor and its phases with the lower bits set in each
// entry (itself built by doubling, one multiply per entry), and the lower
// half takes the clear factor. Every other gate walks only the sub-cube
// its controls select afterwards, pairing entry cm|s (target 0) with
// cm|t|s (target 1). It is the gate-order product to rounding, not bit
// for bit.
func diagTable(gs []gates.Gate, local *[64]uint, width int) []complex128 {
	var factor [MaxDiagQubits][2]complex128
	var phase [MaxDiagQubits][MaxDiagQubits]complex128 // [high][low]
	for k := range width {
		factor[k] = [2]complex128{1, 1}
		for j := range k {
			phase[k][j] = 1
		}
	}
	var walk []gates.Gate
	for _, g := range gs {
		t := local[g.Target]
		switch {
		case len(g.Controls) == 0:
			factor[t][0] *= g.Matrix[0]
			factor[t][1] *= g.Matrix[3]
		case len(g.Controls) == 1 && g.Matrix[0] == 1:
			hi, lo := t, local[g.Controls[0]]
			if hi < lo {
				hi, lo = lo, hi
			}
			phase[hi][lo] *= g.Matrix[3]
		default:
			walk = append(walk, g)
		}
	}
	d := make([]complex128, 1<<width)
	d[0] = 1
	for k := range width {
		lower, upper := d[:1<<k], d[1<<k:2<<k]
		upper[0] = factor[k][1]
		for j := range k {
			half := upper[:1<<j]
			p := phase[k][j]
			if p == 1 {
				copy(upper[1<<j:], half)
				continue
			}
			for x, v := range half {
				upper[1<<j|x] = v * p
			}
		}
		for x, v := range lower {
			upper[x] *= v
		}
		if f := factor[k][0]; f != 1 {
			for x := range lower {
				lower[x] *= f
			}
		}
	}
	all := uint64(len(d) - 1)
	for _, g := range walk {
		tb := uint64(1) << local[g.Target]
		var cm uint64
		for _, q := range g.Controls {
			cm |= 1 << local[q]
		}
		m0, m3 := g.Matrix[0], g.Matrix[3]
		free := all &^ cm &^ tb
		for s := uint64(0); ; s = (s - free) & free {
			d[cm|s] *= m0
			d[cm|tb|s] *= m3
			if s == free {
				break
			}
		}
	}
	return d
}

// --- small helpers ---------------------------------------------------------

func popcount(x uint64) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

// distinctQubits reports whether every qubit across the lists is unique.
func distinctQubits(lists ...[]uint) bool {
	var seen uint64
	for _, l := range lists {
		for _, q := range l {
			if q >= 64 || seen&(1<<q) != 0 {
				return false
			}
			seen |= 1 << q
		}
	}
	return true
}

func equalQubits(a, b []uint) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func maxQubit(lists ...[]uint) uint {
	var m uint
	for _, l := range lists {
		for _, q := range l {
			if q > m {
				m = q
			}
		}
	}
	return m
}
