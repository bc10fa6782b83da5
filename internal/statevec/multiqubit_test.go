package statevec

import (
	"testing"

	"repro/internal/rng"
)

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
		// A random sequence of (controlled) gates supported on the block,
		// multiplied into one block (gateProduct, dense_test.go).
		block, seq := gateProduct(src, qubits, 6)

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
