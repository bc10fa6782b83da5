package recognize

import (
	"repro/internal/circuit"
	"repro/internal/gates"
	"repro/internal/statevec"
)

// verifyEps is the per-amplitude tolerance of the unitary cross-check.
const verifyEps = 1e-10

// verifyOp cross-checks a recognised op against the exact action of the
// gates it replaces, on a compact register holding only the op's support
// qubits: for each of the 2^w basis inputs, the op's shortcut applied to
// |b> must equal the gates' column U|b> in every amplitude. The column is
// walked (walkColumn) at a cost of sum over gates of 2^|branched| — the
// qubits the gates have put into superposition so far — which is O(gates)
// for the permutation and diagonal families and about 4·2^w for a QFT.
//
// It returns (keep, checked): keep=false means the op's shortcut disagrees
// with its gates and must fall back to gate-level; checked=false means the
// support was too wide to afford the check and the op is accepted on
// structural trust.
func verifyOp(c *circuit.Circuit, op *Op, maxQubits uint) (keep, checked bool) {
	support := op.support()
	w := uint(len(support))
	if w == 0 || w > maxQubits {
		return true, false
	}
	var mask uint64
	var rank [64]uint
	for i, q := range support {
		mask |= 1 << q
		rank[q] = uint(i)
	}
	// Every gate of the range must act inside the support, else the op
	// cannot possibly represent the range.
	gs, ok := compactGates(c.Gates[op.Lo:op.Hi], mask, &rank)
	if !ok {
		return false, true
	}
	compact := op.remapped(func(q uint) uint { return rank[q] })
	dim := uint64(1) << w
	col := make([]complex128, dim)
	got := statevec.NewZero(w)
	got.SetParallelism(1)
	for b := uint64(0); b < dim; b++ {
		amps := got.Amplitudes()
		clear(amps)
		amps[b] = 1
		compact.Apply(got)
		walkColumn(col, gs, b)
		for i, a := range got.Amplitudes() {
			// Written so that a NaN anywhere fails the check.
			d := a - col[i]
			if !(real(d)*real(d)+imag(d)*imag(d) <= verifyEps*verifyEps) {
				return false, true
			}
		}
	}
	return true, true
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
