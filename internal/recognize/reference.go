package recognize

import (
	"math"
	"math/bits"
	"math/cmplx"

	"repro/internal/circuit"
	"repro/internal/gates"
	"repro/internal/revlib"
)

// refGate is one gate of a reference network: its 2x2 matrix, its target
// and the mask of its controls.
type refGate struct {
	m        gates.Matrix2
	target   uint
	controls uint64
}

// is reports whether the circuit gate g is r: the same target, exactly r's
// controls in any order, and every matrix entry within matchEps.
func (r refGate) is(g *gates.Gate) bool {
	if g.Target != r.target || len(g.Controls) != bits.OnesCount64(r.controls) {
		return false
	}
	var cm uint64
	for _, c := range g.Controls {
		cm |= 1 << c
	}
	return cm == r.controls && sameMatrix(g.Matrix, r.m)
}

// window is the run of circuit gates a reference network is compared
// with: the gates from at up to hi.
type window struct {
	gs     []gates.Gate
	at, hi int
}

// take compares the next gate of the window with r and moves past it when
// the two are the same.
func (w *window) take(r refGate) bool {
	if w.at >= w.hi || !r.is(&w.gs[w.at]) {
		return false
	}
	w.at++
	return true
}

// matchesReference is the comparator behind both the QFT matcher and the
// first rung of Analyze's check: it walks the reference network op names
// and reports whether the gates [op.Lo, op.Hi) of gs are that network,
// gate for gate at matchEps, stopping at the first difference. A Fourier
// op's network is generated in closed form (qftShape.walk, no allocation);
// an arithmetic op's is regenerated by the revlib builder its region names
// (references.network: once per region form in refs, or now when refs is
// nil). A diagonal run, a phase flip and a reflection have no reference
// network.
func matchesReference(gs []gates.Gate, op *Op, refs references) bool {
	win := window{gs: gs, at: op.Lo, hi: op.Hi}
	return op.walkReference(refs, win.take) && win.at == op.Hi
}

// references holds the arithmetic reference networks one Analyze has
// built, by region form (formKey): a circuit that repeats an annotated
// arithmetic region regenerates its network once, not at every occurrence.
type references map[string][]gates.Gate

// network returns op's arithmetic reference network: the one refs holds
// for op's form, else built now, and kept in refs unless refs is nil.
func (refs references) network(op *Op) []gates.Gate {
	if refs == nil {
		return op.builtReference()
	}
	var buf [128]byte
	key := op.formKey(buf[:0])
	ref, ok := refs[string(key)]
	if !ok {
		ref = op.builtReference()
		refs[string(key)] = ref
	}
	return ref
}

// formKey appends what builtReference reads of an arithmetic op — its
// kind, width, registers and single qubits, one byte each — to buf.
func (op *Op) formKey(buf []byte) []byte {
	buf = append(buf, byte(op.kind), byte(op.m), byte(op.carry), byte(op.bz))
	for _, reg := range [...][]uint{op.regA, op.regB, op.regC, op.regR, op.regQ} {
		buf = append(buf, byte(len(reg)))
		for _, q := range reg {
			buf = append(buf, byte(q))
		}
	}
	return buf
}

// walkReference hands visit the gates of op's reference network in order,
// as qftShape.walk does, an arithmetic network taken as refs.network
// gives it. It returns false at once for an op with none.
func (op *Op) walkReference(refs references, visit func(refGate) bool) bool {
	switch {
	case op.kind == opQFT:
		return qftShape{pos: op.pos, w: op.width, inverse: op.inverse, noswap: op.noswap}.walk(visit)
	case op.hasReference():
		return walkGates(refs.network(op), visit)
	}
	return false
}

// hasReference reports whether op's family names a reference network: the
// QFT shapes and the revlib arithmetic.
func (op *Op) hasReference() bool {
	switch op.kind {
	case opQFT, opAdd, opSub, opAddc, opMul, opDiv:
		return true
	}
	return false
}

// matchedAsReference reports whether op was found by a matcher that
// compared its whole range with its reference network — the QFT matcher,
// and the adder, carry-out adder and multiplier matchers, which validate
// against the regenerated revlib network — so its identity is proved.
func (op *Op) matchedAsReference() bool {
	if op.Annotated {
		return false
	}
	switch op.kind {
	case opQFT, opAdd, opAddc, opMul:
		return true
	}
	return false
}

// builtReference regenerates an arithmetic op's network with the revlib
// builder its region names, on a register as wide as any op's.
func (op *Op) builtReference() []gates.Gate {
	c := circuit.New(64)
	switch op.kind {
	case opAdd:
		revlib.Adder(c, op.regA, op.regB, op.carry)
	case opSub:
		revlib.Subtractor(c, op.regA, op.regB, op.carry)
	case opAddc:
		revlib.AdderWithCarryOut(c, op.regA, op.regB, op.carry, op.bz)
	case opMul:
		revlib.Multiplier(c, op.regA, op.regB, op.regC, op.carry)
	case opDiv:
		revlib.Divider(c, revlib.DividerLayout{M: op.m, R: op.regR, B: op.regB, Q: op.regQ,
			BZ: op.bz, CarryAnc: op.carry})
	}
	return c.Gates
}

// matchNetwork reports whether the gates of gs from i, up to hi, begin
// with the network ref, gate for gate at matchEps.
func matchNetwork(gs []gates.Gate, i, hi int, ref []gates.Gate) bool {
	win := window{gs: gs, at: i, hi: hi}
	return walkGates(ref, win.take)
}

// walkGates hands visit the gates of gs in order and stops at the first
// visit that returns false, reporting whether every gate was taken.
func walkGates(gs []gates.Gate, visit func(refGate) bool) bool {
	for i := range gs {
		r := refGate{m: gs[i].Matrix, target: gs[i].Target}
		for _, c := range gs[i].Controls {
			r.controls |= 1 << c
		}
		if !visit(r) {
			return false
		}
	}
	return true
}

// qftShape is one of the four Fourier networks the qft package builds, on
// the field [pos, pos+w).
type qftShape struct {
	pos, w          uint
	inverse, noswap bool
}

// crPhase[d] is e^{iπ/2^d}, the phase of the QFT's controlled rotation
// between qubits d apart, formed as qft.CircuitNoSwap forms it.
var crPhase = func() (t [64]complex128) {
	for d := range t {
		t[d] = cmplx.Exp(complex(0, math.Pi/float64(uint64(1)<<d)))
	}
	return t
}()

// match compares the gates of gs from i, up to hi, with the network and
// returns where it ends.
func (s qftShape) match(gs []gates.Gate, i, hi int) (end int, ok bool) {
	win := window{gs: gs, at: i, hi: hi}
	ok = s.walk(win.take)
	return win.at, ok
}

// walk hands visit the network's gates in order and stops at the first
// visit that returns false, reporting whether every gate was taken. The
// forward network is qft.Circuit's: for each row i from the top qubit
// down, H on i and then CR(π/2^(i-j)) from each lower qubit j, descending;
// then, unless noswap, three CNOTs per swapped pair, outermost first. The
// inverse is its dagger: the same gates in reverse order with conjugated
// phases (H and CNOT are their own inverses).
func (s qftShape) walk(visit func(refGate) bool) bool {
	h := func(i uint) refGate { return refGate{m: gates.MatH, target: s.pos + i} }
	cr := func(j, i uint, ph complex128) refGate {
		return refGate{m: gates.Matrix2{1, 0, 0, ph}, target: s.pos + i, controls: 1 << (s.pos + j)}
	}
	if !s.inverse {
		for i := s.w; i > 0; i-- {
			if !visit(h(i - 1)) {
				return false
			}
			for j := i - 1; j > 0; j-- {
				if !visit(cr(j-1, i-1, crPhase[i-j])) {
					return false
				}
			}
		}
		return s.noswap || s.swaps(visit, false)
	}
	if !s.noswap && !s.swaps(visit, true) {
		return false
	}
	for i := uint(0); i < s.w; i++ {
		for j := uint(0); j < i; j++ {
			if !visit(cr(j, i, cmplx.Conj(crPhase[i-j]))) {
				return false
			}
		}
		if !visit(h(i)) {
			return false
		}
	}
	return true
}

// swaps walks the reversal swap network, the pair (k, w-1-k) as
// CNOT(a,b)·CNOT(b,a)·CNOT(a,b) for k ascending, or descending when
// reversed (each triple is its own reverse).
func (s qftShape) swaps(visit func(refGate) bool, reversed bool) bool {
	half := s.w / 2
	for n := uint(0); n < half; n++ {
		k := n
		if reversed {
			k = half - 1 - n
		}
		a, b := s.pos+k, s.pos+s.w-1-k
		ab := refGate{m: gates.MatX, target: b, controls: 1 << a}
		ba := refGate{m: gates.MatX, target: a, controls: 1 << b}
		if !visit(ab) || !visit(ba) || !visit(ab) {
			return false
		}
	}
	return true
}
