package fuse

import (
	"math"
	"math/bits"
	"math/cmplx"
	"testing"

	"repro/internal/gates"
	"repro/internal/statevec"
)

// Dense returns the 2^w x 2^w row-major unitary of a dense block — Matrix,
// or the product of Factors, multiplied out on each call — and nil for a
// diagonal or unfused block. Executors call Sweep instead.
func (b *Block) Dense() []complex128 {
	if b.Factors != nil {
		return b.Factors.Dense()
	}
	return b.Matrix
}

// accumulatePerGate is how accumulate built every matrix before it swept a
// plan over the wide ones, kept as their oracle: each gate multiplied into
// the matrix in turn (mulInto), O(4^w) per gate at any width.
func accumulatePerGate(run []item, support uint64, dim int, pos *[64]uint) []complex128 {
	m := make([]complex128, dim*dim)
	for i := 0; i < dim; i++ {
		m[i*dim+i] = 1
	}
	for _, it := range run {
		if it.mask&support != 0 {
			mulInto(m, dim, it.g, pos)
		}
	}
	return m
}

// oracleBlock is materialise's dense form of run — one Matrix, Factors, or
// Diag when the product is numerically diagonal — with every matrix built
// by accumulatePerGate.
func oracleBlock(run []item, support uint64) Block {
	var b Block
	var pos [64]uint
	for q := uint(0); q < 64; q++ {
		if support&(1<<q) != 0 {
			pos[q] = uint(len(b.Qubits))
			b.Qubits = append(b.Qubits, q)
		}
	}
	dim := 1 << len(b.Qubits)
	parts, n := factorBits(run, &pos)
	if n < 2 {
		m := accumulatePerGate(run, support, dim, &pos)
		if d, ok := diagonalOf(m, dim); ok {
			b.Diag = d
		} else {
			b.Matrix = m
		}
		return b
	}
	factors := make([]statevec.Factor, n)
	for i, part := range parts[:n] {
		var sup uint64
		var own []uint
		for m := part; m != 0; m &= m - 1 {
			bit := uint(bits.TrailingZeros(m))
			pos[b.Qubits[bit]] = uint(len(own))
			sup |= 1 << b.Qubits[bit]
			own = append(own, bit)
		}
		factors[i] = statevec.Factor{Bits: own, Matrix: accumulatePerGate(run, sup, 1<<len(own), &pos)}
	}
	if d, ok := diagonalOfFactors(factors, dim); ok {
		b.Diag = d
	} else {
		b.Factors = statevec.NewFactored(uint(len(b.Qubits)), factors)
	}
	return b
}

// blockGateKinds is how many gate kinds blockGate makes.
const blockGateKinds = 13

// blockGate builds gate kind k mod blockGateKinds on the distinct qubits
// qs: qs[0] is the target, and the controlled kinds take their controls
// from qs[1:] — CX, CZ and CR one, CCX two, the multi-controlled X and U
// all of them — as far as qs reaches. theta is the angle of the rotations,
// CR and the dense U.
func blockGate(k int, qs []uint, theta float64) gates.Gate {
	// U(theta, phi, lambda) with phi != lambda: no symmetry between its
	// off-diagonal entries, so a transposed update shows.
	c, s := complex(math.Cos(theta/2), 0), complex(math.Sin(theta/2), 0)
	phi, lambda := 2*theta+0.3, theta/3+0.1
	u := gates.Gate{Name: "U", Matrix: gates.Matrix2{
		c, -cmplx.Exp(complex(0, lambda)) * s,
		cmplx.Exp(complex(0, phi)) * s, cmplx.Exp(complex(0, phi+lambda)) * c,
	}}
	var g gates.Gate
	controls := 0
	switch k % blockGateKinds {
	case 0:
		g = gates.H(0)
	case 1:
		g = gates.Rx(0, theta)
	case 2:
		g = gates.Ry(0, theta)
	case 3:
		g = gates.Rz(0, theta)
	case 4:
		g = u
	case 5:
		g = gates.X(0)
	case 6:
		g = gates.T(0)
	case 7:
		g, controls = gates.X(0), 1
	case 8:
		g, controls = gates.Z(0), 1
	case 9:
		g, controls = gates.Phase(0, theta), 1
	case 10:
		g, controls = gates.X(0), 2
	case 11:
		g, controls = gates.X(0), len(qs)-1
	case 12:
		g, controls = u, len(qs)-1
	}
	g.Target = qs[0]
	g.Controls = append([]uint(nil), qs[1:1+min(controls, len(qs)-1)]...)
	return g
}

// blockRun decodes FuzzBlockMatrix's input into a dense run on w = 5..8
// qubits spread over a register (local bit j is qubit 2j+1), in one
// connected part or in two or three parts on disjoint qubits. The first
// byte holds the width, the shape — connected or parts — and whether every
// gate is followed by its inverse, which leaves a product of the diagonal
// gates alone: numerically diagonal, not structurally. The second picks the
// parts and whether they own consecutive or interleaved bits. Then three
// bytes a gate: kind, the part and the run of its qubits the gate uses,
// angle.
func blockRun(data []byte) []gates.Gate {
	w := 5 + uint(data[0]%4)
	parted, undo := data[0]&4 != 0, data[0]&8 != 0
	order := make([]uint, 0, w) // local bits, dealt to the parts in turn
	for j := uint(0); j < w; j++ {
		order = append(order, j)
	}
	if data[1]&1 != 0 {
		order = order[:0]
		for j := uint(0); j < w; j += 2 {
			order = append(order, j)
		}
		for j := uint(1); j < w; j += 2 {
			order = append(order, j)
		}
	}
	sizes := []uint{w}
	switch {
	case parted && w >= 6 && data[1]&2 != 0:
		sizes = []uint{2, 2, w - 4}
	case parted:
		k := 2 + uint(data[1]>>2)%(w-3)
		sizes = []uint{k, w - k}
	}
	var parts [][]uint
	for _, k := range sizes {
		part := make([]uint, k)
		for j, bit := range order[:k] {
			part[j] = 2*bit + 1
		}
		parts, order = append(parts, part), order[k:]
	}
	var gs []gates.Gate
	add := func(g gates.Gate) {
		gs = append(gs, g)
		if undo && !g.IsDiagonalOnState() {
			gs = append(gs, g.Dagger())
		}
	}
	// Every qubit in the support, a layer on each.
	for _, part := range parts {
		for _, q := range part {
			add(gates.Ry(q, float64(data[1])/64+0.1))
		}
	}
	for rest := data[2:]; len(rest) >= 3 && len(gs) < 96; rest = rest[3:] {
		part := parts[int(rest[1])%len(parts)]
		k := uint(len(part))
		start, count := uint(rest[1]>>2)%k, 1+uint(rest[1]>>5)%k
		qs := make([]uint, count)
		for j := range qs {
			qs[j] = part[(start+uint(j))%k]
		}
		add(blockGate(int(rest[0]), qs, float64(rest[2])/256*2*math.Pi))
	}
	// A chain of controlled gates along each part makes it one connected
	// component: the parts are then exactly what factorBits finds.
	for _, part := range parts {
		for j := 1; j < len(part); j++ {
			add(gates.CNOT(part[j-1], part[j]))
		}
	}
	return gs
}

// FuzzBlockMatrix holds the matrices accumulate sweeps a plan over to the
// per-gate oracle: a dense block of 5 to 8 qubits drawn from the input
// (blockRun), one Matrix or Factors, must have the oracle's entries to
// 1e-12 and the same form — the classification by diagonalOf and
// diagonalOfFactors must not move.
func FuzzBlockMatrix(f *testing.F) {
	f.Add([]byte{3, 0, 4, 0x21, 40, 12, 0xe3, 90, 10, 0x41, 7, 11, 0xff, 200, 1, 5, 33})
	f.Add([]byte{7, 1, 12, 0x27, 13, 7, 0x66, 99, 0, 0x09, 0, 11, 0xf1, 50})
	f.Add([]byte{6, 2, 2, 0x3c, 70, 9, 0x13, 150, 12, 0xa2, 9, 8, 0x05, 0})
	f.Add([]byte{11, 0, 4, 0x21, 40, 9, 0xe3, 90, 12, 0x41, 7, 3, 0xff, 200})
	f.Add([]byte{15, 3, 4, 0x24, 40, 12, 0xe5, 90, 10, 0x46, 7, 11, 0xfe, 200})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		gs := blockRun(data)
		run := itemsOf(gs)
		var support uint64
		for _, it := range run {
			support |= it.mask
		}
		got, want := materialise(denseKind, run, support, 0), oracleBlock(run, support)
		if (got.Matrix == nil) != (want.Matrix == nil) || (got.Factors == nil) != (want.Factors == nil) || (got.Diag == nil) != (want.Diag == nil) {
			t.Fatalf("%d qubits: form Matrix=%v Factors=%v Diag=%v, the oracle's %v %v %v\ngates: %v", len(got.Qubits),
				got.Matrix != nil, got.Factors != nil, got.Diag != nil, want.Matrix != nil, want.Factors != nil, want.Diag != nil, gs)
		}
		a, b := got.Dense(), want.Dense()
		if got.Diag != nil {
			a, b = got.Diag, want.Diag
		}
		for i := range b {
			if d := a[i] - b[i]; math.Abs(real(d)) > 1e-12 || math.Abs(imag(d)) > 1e-12 {
				t.Fatalf("%d qubits: entry %d is %v, the oracle's %v\ngates: %v", len(got.Qubits), i, a[i], b[i], gs)
			}
		}
	})
}
