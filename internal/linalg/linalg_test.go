package linalg

import (
	"math"
	"math/cmplx"
	"sort"
	"testing"

	"repro/internal/rng"
)

// NaiveMul is the textbook i-j-k product, the correctness reference for
// Mul and Strassen.
func (m *Matrix) NaiveMul(other *Matrix) *Matrix {
	if m.Cols != other.Rows {
		panic("linalg: NaiveMul dimension mismatch")
	}
	out := NewMatrix(m.Rows, other.Cols)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < other.Cols; j++ {
			var acc complex128
			for l := 0; l < m.Cols; l++ {
				acc += m.At(i, l) * other.At(l, j)
			}
			out.Set(i, j, acc)
		}
	}
	return out
}

func randomMatrix(src *rng.Source, n int) *Matrix {
	m := NewMatrix(n, n)
	for i := range m.Data {
		m.Data[i] = src.Complex()
	}
	return m
}

// randomUnitary builds a Haar-ish unitary by Gram-Schmidt on a random
// matrix.
func randomUnitary(src *rng.Source, n int) *Matrix {
	m := randomMatrix(src, n)
	// Gram-Schmidt over columns.
	for j := 0; j < n; j++ {
		for k := 0; k < j; k++ {
			var ip complex128
			for i := 0; i < n; i++ {
				ip += cmplx.Conj(m.At(i, k)) * m.At(i, j)
			}
			for i := 0; i < n; i++ {
				m.Set(i, j, m.At(i, j)-ip*m.At(i, k))
			}
		}
		var norm float64
		for i := 0; i < n; i++ {
			norm += absSq(m.At(i, j))
		}
		inv := complex(1/math.Sqrt(norm), 0)
		for i := 0; i < n; i++ {
			m.Set(i, j, m.At(i, j)*inv)
		}
	}
	return m
}

func TestMulMatchesNaive(t *testing.T) {
	src := rng.New(1)
	for _, n := range []int{1, 2, 7, 16, 33, 64} {
		a := randomMatrix(src, n)
		b := randomMatrix(src, n)
		if d := a.Mul(b).MaxAbsDiff(a.NaiveMul(b)); d > 1e-10*float64(n) {
			t.Errorf("n=%d: blocked Mul differs from naive by %g", n, d)
		}
	}
}

func TestMulRectangular(t *testing.T) {
	src := rng.New(2)
	a := NewMatrix(3, 5)
	b := NewMatrix(5, 2)
	for i := range a.Data {
		a.Data[i] = src.Complex()
	}
	for i := range b.Data {
		b.Data[i] = src.Complex()
	}
	got := a.Mul(b)
	want := a.NaiveMul(b)
	if got.Rows != 3 || got.Cols != 2 {
		t.Fatalf("shape %dx%d", got.Rows, got.Cols)
	}
	if d := got.MaxAbsDiff(want); d > 1e-10 {
		t.Errorf("rectangular product differs by %g", d)
	}
}

func TestStrassenMatchesGEMM(t *testing.T) {
	src := rng.New(3)
	for _, n := range []int{64, 128, 256, 512} {
		a := randomMatrix(src, n)
		b := randomMatrix(src, n)
		if d := a.Strassen(b).MaxAbsDiff(a.Mul(b)); d > 1e-8*float64(n) {
			t.Errorf("n=%d: Strassen differs from GEMM by %g", n, d)
		}
	}
}

func TestIdentityAndAdjoint(t *testing.T) {
	src := rng.New(5)
	n := 9
	a := randomMatrix(src, n)
	id := Identity(n)
	if d := a.Mul(id).MaxAbsDiff(a); d > 1e-12 {
		t.Error("A*I != A")
	}
	if d := id.Mul(a).MaxAbsDiff(a); d > 1e-12 {
		t.Error("I*A != A")
	}
	// (AB)† = B†A†.
	b := randomMatrix(src, n)
	left := a.Mul(b).ConjTranspose()
	right := b.ConjTranspose().Mul(a.ConjTranspose())
	if d := left.MaxAbsDiff(right); d > 1e-9 {
		t.Errorf("adjoint identity violated by %g", d)
	}
}

func TestEigDiagonal(t *testing.T) {
	// Diagonal matrix: eigenvalues are the diagonal, eigenvectors are e_k.
	d := NewMatrix(4, 4)
	vals := []complex128{2, -1, 3i, 1 + 1i}
	for i, v := range vals {
		d.Set(i, i, v)
	}
	eig, err := Eig(d)
	if err != nil {
		t.Fatal(err)
	}
	got := append([]complex128(nil), eig.Values...)
	sortComplex(got)
	want := append([]complex128(nil), vals...)
	sortComplex(want)
	for i := range want {
		if cmplx.Abs(got[i]-want[i]) > 1e-10 {
			t.Errorf("eigenvalue %d: got %v want %v", i, got[i], want[i])
		}
	}
}

func TestEigKnown2x2(t *testing.T) {
	// [[0,1],[1,0]] has eigenvalues +1, -1.
	x := NewMatrix(2, 2)
	x.Set(0, 1, 1)
	x.Set(1, 0, 1)
	eig, err := Eig(x)
	if err != nil {
		t.Fatal(err)
	}
	vals := append([]complex128(nil), eig.Values...)
	sortComplex(vals)
	if cmplx.Abs(vals[0]+1) > 1e-10 || cmplx.Abs(vals[1]-1) > 1e-10 {
		t.Fatalf("X eigenvalues: %v", vals)
	}
}

func TestEigResidualRandom(t *testing.T) {
	// ||A v - lambda v|| must be tiny for every eigenpair.
	src := rng.New(7)
	for _, n := range []int{2, 5, 10, 24} {
		a := randomMatrix(src, n)
		var frobenius float64
		for _, x := range a.Data {
			frobenius += absSq(x)
		}
		frobenius = math.Sqrt(frobenius)
		eig, err := Eig(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for k := 0; k < n; k++ {
			v := make([]complex128, n)
			for i := 0; i < n; i++ {
				v[i] = eig.Vectors.At(i, k)
			}
			var res float64
			for i := 0; i < n; i++ {
				var av complex128
				for j := 0; j < n; j++ {
					av += a.At(i, j) * v[j]
				}
				res += absSq(av - eig.Values[k]*v[i])
			}
			res = math.Sqrt(res)
			if res > 1e-6*frobenius {
				t.Errorf("n=%d eigenpair %d: residual %g", n, k, res)
			}
		}
	}
}

func TestEigUnitarySpectrum(t *testing.T) {
	// Eigenvalues of a unitary lie on the unit circle; eigenvectors are
	// orthonormal.
	src := rng.New(8)
	for _, n := range []int{4, 16, 32} {
		u := randomUnitary(src, n)
		if !u.IsUnitary(1e-9) {
			t.Fatal("test unitary construction failed")
		}
		eig, err := Eig(u)
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range eig.Values {
			if math.Abs(cmplx.Abs(v)-1) > 1e-8 {
				t.Errorf("n=%d: |lambda_%d| = %v", n, k, cmplx.Abs(v))
			}
		}
		// Orthonormality of eigenvectors (unitary => normal => V unitary).
		if !eig.Vectors.IsUnitary(1e-6) {
			t.Errorf("n=%d: eigenvector matrix not unitary", n)
		}
	}
}

func TestEigReconstruction(t *testing.T) {
	// For a unitary (normal) matrix, V diag(lambda) V† must reconstruct A.
	src := rng.New(9)
	n := 16
	u := randomUnitary(src, n)
	eig, err := Eig(u)
	if err != nil {
		t.Fatal(err)
	}
	d := NewMatrix(n, n)
	for i, v := range eig.Values {
		d.Set(i, i, v)
	}
	rec := eig.Vectors.Mul(d).Mul(eig.Vectors.ConjTranspose())
	if diff := rec.MaxAbsDiff(u); diff > 1e-7 {
		t.Errorf("reconstruction error %g", diff)
	}
}

func TestHessenbergForm(t *testing.T) {
	src := rng.New(11)
	n := 12
	a := randomMatrix(src, n)
	h := a.Clone()
	q := Identity(n)
	hessenberg(h, q)
	// Below first subdiagonal must be zero.
	for i := 2; i < n; i++ {
		for j := 0; j < i-1; j++ {
			if cmplx.Abs(h.At(i, j)) > 1e-10 {
				t.Fatalf("h[%d][%d] = %v not annihilated", i, j, h.At(i, j))
			}
		}
	}
	// Similarity must hold: a = q h q†.
	rec := q.Mul(h).Mul(q.ConjTranspose())
	if d := rec.MaxAbsDiff(a); d > 1e-8 {
		t.Errorf("Hessenberg similarity broken: %g", d)
	}
	if !q.IsUnitary(1e-9) {
		t.Error("accumulated Q not unitary")
	}
}

func sortComplex(v []complex128) {
	sort.Slice(v, func(i, j int) bool {
		if real(v[i]) != real(v[j]) {
			return real(v[i]) < real(v[j])
		}
		return imag(v[i]) < imag(v[j])
	})
}
