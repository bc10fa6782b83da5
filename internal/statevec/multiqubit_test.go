package statevec

import (
	"testing"

	"repro/internal/gates"
	"repro/internal/rng"
)

// embedGate expands a (controlled) single-qubit gate into a dense 2^w x 2^w
// block over the local qubit order `qubits` (bit j of the local index is
// qubits[j]). Reference implementation for the kernel tests.
func embedGate(g gates.Gate, qubits []uint) []complex128 {
	w := len(qubits)
	dim := 1 << w
	pos := make(map[uint]uint, w)
	for j, q := range qubits {
		pos[q] = uint(j)
	}
	tb := uint64(1) << pos[g.Target]
	var cm uint64
	for _, c := range g.Controls {
		cm |= 1 << pos[c]
	}
	m := make([]complex128, dim*dim)
	for col := 0; col < dim; col++ {
		x := uint64(col)
		if x&cm != cm {
			m[col*dim+col] = 1
			continue
		}
		x0, x1 := x&^tb, x|tb
		if x&tb == 0 {
			m[int(x0)*dim+col] += g.Matrix[0]
			m[int(x1)*dim+col] += g.Matrix[2]
		} else {
			m[int(x0)*dim+col] += g.Matrix[1]
			m[int(x1)*dim+col] += g.Matrix[3]
		}
	}
	return m
}

// mulN returns a*b for dense 2^w blocks.
func mulN(a, b []complex128, dim int) []complex128 {
	out := make([]complex128, dim*dim)
	for i := 0; i < dim; i++ {
		for k := 0; k < dim; k++ {
			aik := a[i*dim+k]
			if aik == 0 {
				continue
			}
			for j := 0; j < dim; j++ {
				out[i*dim+j] += aik * b[k*dim+j]
			}
		}
	}
	return out
}

func TestApplyMatrixNMatchesGateByGate(t *testing.T) {
	src := rng.New(321)
	for trial := 0; trial < 20; trial++ {
		n := uint(4 + src.Intn(4))
		w := 1 + src.Intn(4)
		// Pick w distinct qubits in random order.
		perm := src.Perm(int(n))
		qubits := make([]uint, w)
		for j := range qubits {
			qubits[j] = uint(perm[j])
		}
		// Random sequence of (controlled) gates supported on the block.
		var seq []gates.Gate
		for i := 0; i < 6; i++ {
			g := gates.Ry(qubits[src.Intn(w)], src.Float64()*3)
			if w > 1 && src.Intn(2) == 0 {
				c := qubits[src.Intn(w)]
				if c != g.Target {
					g = g.WithControls(c)
				}
			}
			seq = append(seq, g)
		}
		dim := 1 << w
		block := make([]complex128, dim*dim)
		for i := 0; i < dim; i++ {
			block[i*dim+i] = 1
		}
		for _, g := range seq {
			block = mulN(embedGate(g, qubits), block, dim)
		}

		ref := NewRandom(n, src)
		got := ref.Clone()
		for _, g := range seq {
			ref.ApplyGate(g)
		}
		got.ApplyMatrixN(block, qubits)
		if d := got.MaxDiff(ref); d > 1e-12 {
			t.Fatalf("trial %d (n=%d w=%d): block differs from gate-by-gate by %g", trial, n, w, d)
		}
	}
}

func TestApplyMatrixNAgreesWithMatrix4(t *testing.T) {
	src := rng.New(654)
	var m4 [16]complex128
	for i := range m4 {
		m4[i] = src.Complex()
	}
	a := NewRandom(5, src)
	b := a.Clone()
	// ApplyMatrix4 acts on local value (bit of q1 << 1) | bit of q0, which
	// matches ApplyMatrixN with qubit order [q0, q1].
	a.ApplyMatrix4(&m4, 3, 1)
	b.ApplyMatrixN(m4[:], []uint{3, 1})
	if d := a.MaxDiff(b); d > 1e-13 {
		t.Fatalf("ApplyMatrixN(w=2) disagrees with ApplyMatrix4 by %g", d)
	}
}

func TestApplyMatrixNPanicsOnBadInput(t *testing.T) {
	s := New(3)
	for name, fn := range map[string]func(){
		"duplicate qubit": func() { s.ApplyMatrixN(make([]complex128, 16), []uint{1, 1}) },
		"out of range":    func() { s.ApplyMatrixN(make([]complex128, 4), []uint{7}) },
		"wrong size":      func() { s.ApplyMatrixN(make([]complex128, 9), []uint{0, 1}) },
		"no qubits":       func() { s.ApplyMatrixN(nil, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}
