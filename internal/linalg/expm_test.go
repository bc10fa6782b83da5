package linalg

import (
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/rng"
)

func TestExpmZero(t *testing.T) {
	e, err := Expm(NewMatrix(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	if d := e.MaxAbsDiff(Identity(4)); d > 1e-14 {
		t.Errorf("exp(0) != I: %g", d)
	}
}

func TestExpmDiagonal(t *testing.T) {
	d := NewMatrix(3, 3)
	vals := []complex128{1, -2, 0.5i}
	for i, v := range vals {
		d.Set(i, i, v)
	}
	e, err := Expm(d)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if cmplx.Abs(e.At(i, i)-cmplx.Exp(v)) > 1e-12 {
			t.Errorf("exp diag %d: %v vs %v", i, e.At(i, i), cmplx.Exp(v))
		}
	}
}

func TestExpmPauliRotation(t *testing.T) {
	// exp(-i theta X / 2) = [[cos(t/2), -i sin(t/2)], [-i sin, cos]].
	theta := 1.234
	a := NewMatrix(2, 2)
	a.Set(0, 1, complex(0, -theta/2))
	a.Set(1, 0, complex(0, -theta/2))
	e, err := Expm(a)
	if err != nil {
		t.Fatal(err)
	}
	c := complex(math.Cos(theta/2), 0)
	s := complex(0, -math.Sin(theta/2))
	want := [][]complex128{{c, s}, {s, c}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if cmplx.Abs(e.At(i, j)-want[i][j]) > 1e-12 {
				t.Fatalf("Rx via Expm wrong: %v", e)
			}
		}
	}
}

func TestExpmAdditionTheorem(t *testing.T) {
	// For commuting A and 2A: exp(A) exp(2A) = exp(3A).
	src := rng.New(61)
	a := randomMatrix(src, 6)
	// Keep the norm moderate.
	for i := range a.Data {
		a.Data[i] *= 0.2
	}
	e1, err := Expm(a)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := Expm(a.Scale(2))
	if err != nil {
		t.Fatal(err)
	}
	e3, err := Expm(a.Scale(3))
	if err != nil {
		t.Fatal(err)
	}
	if d := e1.Mul(e2).MaxAbsDiff(e3); d > 1e-9 {
		t.Errorf("exp(A)exp(2A) != exp(3A): %g", d)
	}
}

func TestExpmInverse(t *testing.T) {
	src := rng.New(62)
	a := randomMatrix(src, 8)
	e, err := Expm(a)
	if err != nil {
		t.Fatal(err)
	}
	einv, err := Expm(a.Scale(-1))
	if err != nil {
		t.Fatal(err)
	}
	if d := e.Mul(einv).MaxAbsDiff(Identity(8)); d > 1e-8 {
		t.Errorf("exp(A)exp(-A) != I: %g", d)
	}
}

func TestExpmSkewHermitianIsUnitary(t *testing.T) {
	// exp(-iH) for Hermitian H must be unitary — the quantum evolution law.
	src := rng.New(63)
	n := 8
	h := randomMatrix(src, n)
	// Hermitise: H <- (H + H†)/2, then A = -iH.
	hh := h.Add(h.ConjTranspose()).Scale(0.5)
	a := hh.Scale(complex(0, -1))
	u, err := Expm(a)
	if err != nil {
		t.Fatal(err)
	}
	if !u.IsUnitary(1e-9) {
		t.Error("exp(-iH) not unitary")
	}
	// Eigenphases of U must be -eigenvalues of H (mod 2 pi).
	hv, err := Eig(hh)
	if err != nil {
		t.Fatal(err)
	}
	uv, err := Eig(u)
	if err != nil {
		t.Fatal(err)
	}
	for _, lam := range hv.Values {
		want := cmplx.Exp(complex(0, -real(lam)))
		best := math.Inf(1)
		for _, mu := range uv.Values {
			if d := cmplx.Abs(mu - want); d < best {
				best = d
			}
		}
		if best > 1e-8 {
			t.Errorf("spectral mapping violated for eigenvalue %v (best %g)", lam, best)
		}
	}
}

func TestExpmLargeNormScaling(t *testing.T) {
	// Norm far above theta13 forces the squaring phase.
	a := NewMatrix(2, 2)
	a.Set(0, 0, 20) // exp(20) ~ 4.85e8
	a.Set(1, 1, -3)
	e, err := Expm(a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(real(e.At(0, 0))-math.Exp(20)) > 1e-5*math.Exp(20) {
		t.Errorf("exp(20) = %v", e.At(0, 0))
	}
	if math.Abs(real(e.At(1, 1))-math.Exp(-3)) > 1e-9 {
		t.Errorf("exp(-3) = %v", e.At(1, 1))
	}
}

func TestSolve(t *testing.T) {
	src := rng.New(64)
	a := randomMatrix(src, 10)
	b := randomMatrix(src, 10)
	x, err := solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if d := a.Mul(x).MaxAbsDiff(b); d > 1e-8 {
		t.Errorf("solve residual %g", d)
	}
}

func TestSolveSingular(t *testing.T) {
	a := NewMatrix(3, 3) // all zeros
	if _, err := solve(a, Identity(3)); err == nil {
		t.Error("singular solve accepted")
	}
}
