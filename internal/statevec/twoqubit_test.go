package statevec

import (
	"testing"

	"repro/internal/gates"
	"repro/internal/rng"
)

// cnotMatrix4 returns the 4x4 CNOT with control q0-slot, target q1-slot
// under the (q1 << 1 | q0) basis convention.
func cnotMatrix4() [16]complex128 {
	// |q1 q0>: control = q0 (column bit 0), target = q1 (bit 1).
	// 00 -> 00, 01 -> 11, 10 -> 10, 11 -> 01.
	var m [16]complex128
	m[0*4+0] = 1
	m[3*4+1] = 1
	m[2*4+2] = 1
	m[1*4+3] = 1
	return m
}

func TestApplyMatrixNPairCNOT(t *testing.T) {
	src := rng.New(1)
	for trial := 0; trial < 5; trial++ {
		n := uint(4 + src.Intn(3))
		q0 := uint(src.Intn(int(n)))
		q1 := uint(src.Intn(int(n)))
		if q0 == q1 {
			continue
		}
		st := NewRandom(n, src)
		want := st.Clone()
		want.ApplyGate(gates.CNOT(q0, q1))
		got := st.Clone()
		m := cnotMatrix4()
		got.ApplyMatrixN(m[:], []uint{q0, q1})
		if d := got.MaxDiff(want); d > eps {
			t.Fatalf("n=%d q0=%d q1=%d: CNOT via a 4x4 block differs by %g", n, q0, q1, d)
		}
	}
}

func TestApplyMatrixNPairKroneckerOfSingles(t *testing.T) {
	// (A on q0) then (B on q1) == (B ⊗ A) as a 4x4.
	src := rng.New(2)
	a := gates.Rx(0, 0.7).Matrix
	b := gates.Ry(0, 1.3).Matrix
	var m [16]complex128
	for i1 := 0; i1 < 2; i1++ {
		for i0 := 0; i0 < 2; i0++ {
			for j1 := 0; j1 < 2; j1++ {
				for j0 := 0; j0 < 2; j0++ {
					row := i1<<1 | i0
					col := j1<<1 | j0
					m[row*4+col] = b[i1*2+j1] * a[i0*2+j0]
				}
			}
		}
	}
	n := uint(5)
	q0, q1 := uint(1), uint(3)
	st := NewRandom(n, src)
	want := st.Clone()
	want.ApplyControlledMatrix2(a, q0, nil)
	want.ApplyControlledMatrix2(b, q1, nil)
	got := st.Clone()
	got.ApplyMatrixN(m[:], []uint{q0, q1})
	if d := got.MaxDiff(want); d > eps {
		t.Fatalf("Kronecker two-qubit differs by %g", d)
	}
}

// TestApplyMatrixNPairMatchesDenseSweep: the width-2 pair kernel must
// agree with the generic dense sweep running the same matrix widened by an
// identity factor on a third qubit (local bit 2, so I ⊗ m).
func TestApplyMatrixNPairMatchesDenseSweep(t *testing.T) {
	src := rng.New(654)
	for trial := 0; trial < 5; trial++ {
		m := randomUnitary(src, 2)
		wide := make([]complex128, 64)
		for hi := 0; hi < 2; hi++ {
			for r := 0; r < 4; r++ {
				for c := 0; c < 4; c++ {
					row, col := hi<<2|r, hi<<2|c
					wide[row*8+col] = m[r*4+c]
				}
			}
		}
		perm := src.Perm(6)
		q0, q1, q2 := uint(perm[0]), uint(perm[1]), uint(perm[2])
		pair := NewRandom(6, src)
		sweep := pair.Clone()
		pair.ApplyMatrixN(m, []uint{q0, q1})
		sweep.ApplyMatrixN(wide, []uint{q0, q1, q2})
		if d := pair.MaxDiff(sweep); d > 1e-13 {
			t.Fatalf("trial %d (q%d, q%d): pair kernel differs from the dense sweep by %g", trial, q0, q1, d)
		}
	}
}

// TestApplyMatrixNPairSwap: the SWAP block equals the three-CNOT swap, is
// symmetric in its qubit order and is its own inverse.
func TestApplyMatrixNPairSwap(t *testing.T) {
	var swap [16]complex128
	for _, rc := range [][2]int{{0, 0}, {1, 2}, {2, 1}, {3, 3}} {
		swap[rc[0]*4+rc[1]] = 1
	}
	st := NewRandom(6, rng.New(3))
	want := st.Clone()
	for _, g := range gates.Swap(1, 4) {
		want.ApplyGate(g)
	}
	got := st.Clone()
	got.ApplyMatrixN(swap[:], []uint{1, 4})
	if d := got.MaxDiff(want); d > eps {
		t.Fatalf("SWAP block differs from 3-CNOT swap by %g", d)
	}
	got.ApplyMatrixN(swap[:], []uint{4, 1})
	if d := got.MaxDiff(st); d > eps {
		t.Fatal("double swap not identity")
	}
}

func TestApplyMatrixNPairNormPreserved(t *testing.T) {
	// A random unitary 4x4 (built from single-qubit unitaries and CNOT)
	// must preserve the norm.
	src := rng.New(4)
	st := NewRandom(6, src)
	m := cnotMatrix4()
	st.ApplyMatrixN(m[:], []uint{2, 5})
	if d := st.Norm() - 1; d > 1e-10 || d < -1e-10 {
		t.Fatalf("norm drifted by %g", d)
	}
}
