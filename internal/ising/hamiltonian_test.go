package ising

import (
	"math"
	"testing"

	"repro/internal/linalg"
	"repro/internal/qpe"
	"repro/internal/rng"
	"repro/internal/statevec"
)

// Hamiltonian returns the dense 2^n x 2^n matrix of the open-chain TFIM,
//
//	H = -J sum_i Z_i Z_{i+1} - h sum_i X_i.
//
// Both terms are diagonal-or-permutation structured, so the matrix is
// assembled directly from bit arithmetic rather than Kronecker products.
func Hamiltonian(n uint, p Params) *linalg.Matrix {
	dim := 1 << n
	m := linalg.NewMatrix(dim, dim)
	for col := 0; col < dim; col++ {
		// ZZ terms: diagonal, sign per bond from bit agreement.
		var diag float64
		for q := uint(0); q+1 < n; q++ {
			b0 := (col >> q) & 1
			b1 := (col >> (q + 1)) & 1
			if b0 == b1 {
				diag -= p.J
			} else {
				diag += p.J
			}
		}
		m.Set(col, col, complex(diag, 0))
		// X terms: one off-diagonal entry per site.
		for q := uint(0); q < n; q++ {
			row := col ^ (1 << q)
			m.Set(row, col, m.At(row, col)-complex(p.H, 0))
		}
	}
	return m
}

// ExactStep returns the exact single-step evolution exp(-i H dt) via the
// matrix exponential — the reference the Trotterised circuit is an O(dt^2)
// approximation of.
func ExactStep(n uint, p Params) (*linalg.Matrix, error) {
	h := Hamiltonian(n, p)
	return linalg.Expm(h.Scale(complex(0, -p.Dt)))
}

func TestHamiltonianHermitian(t *testing.T) {
	h := Hamiltonian(4, DefaultParams())
	if d := h.MaxAbsDiff(h.ConjTranspose()); d > 1e-14 {
		t.Errorf("H not Hermitian: %g", d)
	}
}

// energy returns <psi|H|psi> through the dense matrix.
func energy(h *linalg.Matrix, st *statevec.State) float64 {
	amps := st.Amplitudes()
	var e complex128
	for r, ar := range amps {
		var hv complex128
		for c, ac := range amps {
			hv += h.At(r, c) * ac
		}
		e += complex(real(ar), -imag(ar)) * hv
	}
	return real(e)
}

func TestHamiltonianKnownEnergies(t *testing.T) {
	p := Params{J: 1.5, H: 0.7, Dt: 0.1}
	h := Hamiltonian(4, p)
	// |0000>: all bonds aligned, <X> = 0: E = -J(n-1).
	if got := energy(h, statevec.New(4)); math.Abs(got-(-4.5)) > 1e-12 {
		t.Errorf("E(|0000>) = %v, want -4.5", got)
	}
	// Antiferromagnetic basis state |0101>: all bonds anti-aligned: E = +J(n-1).
	if got := energy(h, statevec.NewBasis(4, 0b0101)); math.Abs(got-4.5) > 1e-12 {
		t.Errorf("E(|0101>) = %v, want 4.5", got)
	}
	// |++++>: <ZZ> = 0 on every bond, <X> = 1 on every site: E = -h n.
	plus := statevec.New(4)
	for q := uint(0); q < 4; q++ {
		plus.ApplyHadamard(q)
	}
	if got := energy(h, plus); math.Abs(got-(-2.8)) > 1e-12 {
		t.Errorf("E(|++++>) = %v, want -2.8", got)
	}
}

// TestHamiltonianMatchesPauliTerms: <psi|H|psi> through the dense matrix
// must equal the term-by-term sum, with each <Z_i Z_i+1> read off the
// state by ExpectationDiagonal and each <X_i> as <Z_i> after a Hadamard.
func TestHamiltonianMatchesPauliTerms(t *testing.T) {
	src := rng.New(71)
	const n = uint(4)
	p := Params{J: 0.8, H: 1.3, Dt: 0.1}
	h := Hamiltonian(n, p)
	z := func(qubits ...uint) func(uint64) float64 {
		return func(i uint64) float64 {
			v := 1.0
			for _, q := range qubits {
				if i>>q&1 == 1 {
					v = -v
				}
			}
			return v
		}
	}
	for trial := 0; trial < 5; trial++ {
		st := statevec.NewRandom(n, src)
		var terms float64
		for q := uint(0); q+1 < n; q++ {
			terms -= p.J * st.ExpectationDiagonal(z(q, q+1))
		}
		for q := uint(0); q < n; q++ {
			rot := st.Clone()
			rot.ApplyHadamard(q)
			terms -= p.H * rot.ExpectationDiagonal(z(q))
		}
		if dense := energy(h, st); math.Abs(dense-terms) > 1e-10 {
			t.Fatalf("trial %d: dense %v vs Pauli terms %v", trial, dense, terms)
		}
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
	hv, err := linalg.Eig(Hamiltonian(n, p))
	if err != nil {
		t.Fatal(err)
	}
	uv, err := linalg.Eig(u)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range hv.Values {
		want := complexExpI(-real(e) * p.Dt)
		best := math.Inf(1)
		for _, mu := range uv.Values {
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
		return trotter.MaxAbsDiff(exact)
	}
	e1 := errAt(0.2)
	e2 := errAt(0.05)
	ratio := e1 / e2
	if ratio < 8 || ratio > 32 {
		t.Errorf("Trotter error ratio %v for 4x smaller dt, want ~16 (O(dt^2))", ratio)
	}
}

func complexAbs(z complex128) float64 { return math.Hypot(real(z), imag(z)) }
func complexExpI(theta float64) complex128 {
	return complex(math.Cos(theta), math.Sin(theta))
}
