package ising

import (
	"math"
	"testing"

	"repro/internal/linalg"
	"repro/internal/qpe"
	"repro/internal/rng"
	"repro/internal/statevec"
)

func TestHamiltonianHermitian(t *testing.T) {
	h := Hamiltonian(4, DefaultParams())
	if d := h.MaxAbsDiff(h.ConjTranspose()); d > 1e-14 {
		t.Errorf("H not Hermitian: %g", d)
	}
}

func TestHamiltonianMatchesPauliTerms(t *testing.T) {
	// <psi|H|psi> via the dense matrix must equal the Pauli-string sum.
	src := rng.New(71)
	n := uint(4)
	p := Params{J: 0.8, H: 1.3, Dt: 0.1}
	h := Hamiltonian(n, p)
	for trial := 0; trial < 5; trial++ {
		st := statevec.NewRandom(n, src)
		hv := h.MatVec(st.Amplitudes())
		var dense complex128
		for i, a := range st.Amplitudes() {
			dense += complexConj(a) * hv[i]
		}
		viaPauli := Energy(st, p)
		if math.Abs(real(dense)-viaPauli) > 1e-10 {
			t.Fatalf("dense %v vs Pauli %v", real(dense), viaPauli)
		}
	}
}

func TestHamiltonianKnownEnergies(t *testing.T) {
	// |0000>: all bonds aligned, <X> = 0: E = -J(n-1).
	p := Params{J: 1.5, H: 0.7, Dt: 0.1}
	st := statevec.New(4)
	if got := Energy(st, p); math.Abs(got-(-4.5)) > 1e-12 {
		t.Errorf("E(|0000>) = %v, want -4.5", got)
	}
	// Antiferromagnetic basis state |0101>: all bonds anti-aligned: E = +J(n-1).
	st2 := statevec.NewBasis(4, 0b0101)
	if got := Energy(st2, p); math.Abs(got-4.5) > 1e-12 {
		t.Errorf("E(|0101>) = %v, want 4.5", got)
	}
}

func TestExactStepUnitaryAndSpectrum(t *testing.T) {
	n := uint(3)
	p := DefaultParams()
	u, err := ExactStep(n, p)
	if err != nil {
		t.Fatal(err)
	}
	if !u.IsUnitary(1e-9) {
		t.Error("exact step not unitary")
	}
	// Eigenphases of U = exp(-iH dt) must be -E dt for eigenenergies E.
	hv, err := linalg.Eigenvalues(Hamiltonian(n, p))
	if err != nil {
		t.Fatal(err)
	}
	uv, err := linalg.Eigenvalues(u)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range hv {
		want := complexExpI(-real(e) * p.Dt)
		best := math.Inf(1)
		for _, mu := range uv {
			d := complexAbs(mu - want)
			if d < best {
				best = d
			}
		}
		if best > 1e-8 {
			t.Errorf("missing eigenphase for E=%v", real(e))
		}
	}
}

func TestTrotterConvergesToExact(t *testing.T) {
	// ||Trotter(dt) - exp(-iH dt)|| must shrink as O(dt^2): quartering dt
	// must shrink the error by ~16x (allow slack for higher-order terms).
	n := uint(3)
	errAt := func(dt float64) float64 {
		p := Params{J: 1, H: 1, Dt: dt}
		exact, err := ExactStep(n, p)
		if err != nil {
			t.Fatal(err)
		}
		trotter := qpe.DenseUnitary(TrotterStep(n, p))
		return trotter.Sub(exact).FrobeniusNorm()
	}
	e1 := errAt(0.2)
	e2 := errAt(0.05)
	ratio := e1 / e2
	if ratio < 8 || ratio > 32 {
		t.Errorf("Trotter error ratio %v for 4x smaller dt, want ~16 (O(dt^2))", ratio)
	}
}

func complexConj(z complex128) complex128 { return complex(real(z), -imag(z)) }
func complexAbs(z complex128) float64     { return math.Hypot(real(z), imag(z)) }
func complexExpI(theta float64) complex128 {
	return complex(math.Cos(theta), math.Sin(theta))
}
