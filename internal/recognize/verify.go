package recognize

import (
	"repro/internal/binio"
	"repro/internal/circuit"
	"repro/internal/gates"
	"repro/internal/statevec"
)

// verifyEps is the per-amplitude tolerance of the unitary cross-check.
const verifyEps = 1e-10

// region is a recognised op and the gates it replaces, both rewritten onto
// the compact register of the op's support: what Analyze checks, and the
// identity under which it checks each distinct region once.
type region struct {
	w  uint
	op *Op
	gs []columnGate
}

// compactRegion builds op's region over c's gates. It returns (nil, false)
// when the support is empty or wider than maxQubits, and (nil, true) when a
// gate acts outside the support, in which case the op cannot possibly
// represent its range.
func compactRegion(c *circuit.Circuit, op *Op, maxQubits uint) (*region, bool) {
	support := op.support()
	w := uint(len(support))
	if w == 0 || w > maxQubits {
		return nil, false
	}
	var mask uint64
	var rank [64]uint
	for i, q := range support {
		mask |= 1 << q
		rank[q] = uint(i)
	}
	gs, ok := compactGates(c.Gates[op.Lo:op.Hi], mask, &rank)
	if !ok {
		return nil, true
	}
	return &region{w: w, op: op.remapped(func(q uint) uint { return rank[q] }), gs: gs}, true
}

// holds cross-checks the region's op against the exact action of its
// gates: for each of the 2^w basis inputs, the op's image of |b> must equal
// the gates' column U|b> in every amplitude, within verifyEps, a NaN
// failing. A basis-map op (add, sub, addc, mul, div, diagonal, phaseflip)
// sends |b> to one phased basis state, so while its gates keep the column
// one basis state too (walkBasis), a column is an index and a phase
// compared at O(gates), with no 2^w state. A QFT or a reflection — or a
// basis-map op one of whose gates branches the column, H·H inside an adder
// say — pays the dense column from there on: the shortcut applied to a 2^w
// state and compared amplitude by amplitude with the walked column, O(4^w)
// over all columns.
func (r *region) holds() bool {
	dim := uint64(1) << r.w
	b := uint64(0)
	if image, ok := r.op.basisImage(); ok {
		for ; b < dim; b++ {
			at, ph, ok := walkBasis(r.gs, b)
			if !ok {
				break // a gate branches: this column and the rest go dense
			}
			want, wph := image(b)
			if at != want || !near(ph, wph) {
				return false
			}
		}
	}
	if b == dim {
		return true
	}
	col := make([]complex128, dim)
	got := statevec.NewZero(r.w)
	got.SetParallelism(1)
	for ; b < dim; b++ {
		amps := got.Amplitudes()
		clear(amps)
		amps[b] = 1
		r.op.Apply(got)
		walkColumn(col, r.gs, b)
		for i, a := range got.Amplitudes() {
			if !near(a, col[i]) {
				return false
			}
		}
	}
	return true
}

// near reports |a-b| <= verifyEps, written so that a NaN is never near.
func near(a, b complex128) bool {
	d := a - b
	return real(d)*real(d)+imag(d)*imag(d) <= verifyEps*verifyEps
}

// key is the region's identity for Analyze's verdict memo: the compact op's
// wire form (its region form and table), its gate range and flags zeroed,
// then every compact gate's matrix bits, target and controls. Regions with equal keys run the same
// check on the same bits.
func (r *region) key() string {
	op := *r.op
	op.Lo, op.Hi, op.Annotated, op.Verified = 0, 0, false, false
	w := binio.NewWriter(make([]byte, 0, op.EncodedLen()+len(r.gs)*(4*16+2*8)))
	op.EncodeBinary(w)
	for _, g := range r.gs {
		for _, v := range g.m {
			w.C128(v)
		}
		w.U64(g.target)
		w.U64(g.controls)
	}
	return string(w.Bytes())
}

// columnGate is one gate on the compact register: its 2x2 matrix, the bit
// of its target and the mask of its controls.
type columnGate struct {
	m        gates.Matrix2
	target   uint64
	controls uint64
}

// compactGates rewrites gs onto the compact register, qubit q becoming bit
// rank[q]. ok is false when a gate touches a qubit outside mask or names a
// qubit twice.
func compactGates(gs []gates.Gate, mask uint64, rank *[64]uint) ([]columnGate, bool) {
	out := make([]columnGate, len(gs))
	for i, g := range gs {
		seen := uint64(1) << g.Target
		if mask&seen == 0 {
			return nil, false
		}
		out[i].m = g.Matrix
		out[i].target = 1 << rank[g.Target]
		for _, q := range g.Controls {
			if mask&(1<<q) == 0 || seen&(1<<q) != 0 {
				return nil, false
			}
			seen |= 1 << q
			out[i].controls |= 1 << rank[q]
		}
	}
	return out, true
}

// walkColumn overwrites col with U|b>, U the product of gs on a register of
// log2(len(col)) qubits.
//
// A gate whose matrix is exactly diagonal or anti-diagonal maps a basis
// state to one phased basis state, so the column stays on the sub-cube
// base|s, s ⊆ branched, where branched holds the qubits some gate could
// leave in superposition and base the value of the rest. A gate whose
// unbranched controls read 0 in base does nothing; a diagonal gate on an
// unbranched target rephases the sub-cube in place; an anti-diagonal one
// with no branched control moves it, flipping the target in base. Any
// other gate on an unbranched target adds the target to branched first
// (the new half of the sub-cube is still zero), then applies its 2x2 to the
// pairs of the sub-cube that satisfy its controls. A gate costs
// 2^|branched| at most; past the initial clear, nothing outside the
// sub-cube is touched.
func walkColumn(col []complex128, gs []columnGate, b uint64) {
	clear(col)
	col[b] = 1
	base, branched := b, uint64(0)
	for i := range gs {
		g := &gs[i]
		fixed := g.controls &^ branched
		if base&fixed != fixed {
			continue
		}
		cm := g.controls & branched
		if g.target&branched == 0 {
			v := base&g.target != 0
			switch {
			case g.m[1] == 0 && g.m[2] == 0:
				ph := g.m[0]
				if v {
					ph = g.m[3]
				}
				if ph == 1 {
					continue
				}
				free := branched &^ cm
				for s := uint64(0); ; s = (s - free) & free {
					col[base|cm|s] *= ph
					if s == free {
						break
					}
				}
				continue
			case g.m[0] == 0 && g.m[3] == 0 && cm == 0:
				// |0> -> m[2]|1>, |1> -> m[1]|0>.
				ph := g.m[2]
				if v {
					ph = g.m[1]
				}
				to := base ^ g.target
				for s := uint64(0); ; s = (s - branched) & branched {
					col[to|s], col[base|s] = ph*col[base|s], 0
					if s == branched {
						break
					}
				}
				base = to
				continue
			}
			branched |= g.target
			base &^= g.target
		}
		free := branched &^ cm &^ g.target
		for s := uint64(0); ; s = (s - free) & free {
			i0 := base | cm | s
			i1 := i0 | g.target
			a0, a1 := col[i0], col[i1]
			col[i0] = g.m[0]*a0 + g.m[1]*a1
			col[i1] = g.m[2]*a0 + g.m[3]*a1
			if s == free {
				break
			}
		}
	}
}

// walkBasis follows U|b> while it stays one basis state, as walkColumn does
// before any qubit has branched, keeping only that state's index and phase.
// ok is false at the first gate that would put a qubit into superposition.
// The phase is formed factor by factor as walkColumn forms the column's one
// nonzero entry, so the two agree bit for bit.
func walkBasis(gs []columnGate, b uint64) (at uint64, ph complex128, ok bool) {
	ph = 1
	for i := range gs {
		g := &gs[i]
		if b&g.controls != g.controls {
			continue
		}
		v := b&g.target != 0
		switch {
		case g.m[1] == 0 && g.m[2] == 0:
			f := g.m[0]
			if v {
				f = g.m[3]
			}
			if f != 1 {
				ph *= f
			}
		case g.m[0] == 0 && g.m[3] == 0:
			f := g.m[2]
			if v {
				f = g.m[1]
			}
			ph = f * ph
			b ^= g.target
		default:
			return 0, 0, false
		}
	}
	return b, ph, true
}
