package linalg

import (
	"errors"
	"math"
	"math/cmplx"
)

// Eigen holds the eigendecomposition A = V diag(Values) V^{-1}. For the
// unitary operators phase estimation deals with, V is unitary and the
// eigenvalues lie on the unit circle.
type Eigen struct {
	// Values are the eigenvalues, in Schur order.
	Values []complex128
	// Vectors has the (unit-norm) eigenvector of Values[k] in column k.
	Vectors *Matrix
}

// maxQRSweeps bounds the total QR iterations (generous: convergence is
// typically 2-3 sweeps per eigenvalue).
const maxQRSweeps = 60

// Eig computes eigenvalues and eigenvectors of a general square complex
// matrix by Householder-Hessenberg reduction followed by a shifted QR
// iteration with Givens rotations (the Hessenberg-Schur route the paper
// cites [17], as implemented in LAPACK's zgeev). Complexity O(n^3).
func Eig(a *Matrix) (*Eigen, error) {
	if a.Rows != a.Cols {
		return nil, errors.New("linalg: Eig requires a square matrix")
	}
	n := a.Rows
	if n == 0 {
		return &Eigen{Vectors: NewMatrix(0, 0)}, nil
	}
	h := a.Clone()
	q := Identity(n)
	hessenberg(h, q)
	if err := schur(h, q); err != nil {
		return nil, err
	}
	values := make([]complex128, n)
	for i := 0; i < n; i++ {
		values[i] = h.At(i, i)
	}
	vectors := triangularEigenvectors(h, q)
	return &Eigen{Values: values, Vectors: vectors}, nil
}

// hessenberg reduces h to upper Hessenberg form in place with Householder
// reflectors, accumulating the similarity transform into q (so original =
// q * h * q†).
func hessenberg(h, q *Matrix) {
	n := h.Rows
	v := make([]complex128, n)
	for col := 0; col < n-2; col++ {
		// Build the reflector annihilating h[col+2:, col].
		var norm float64
		for i := col + 1; i < n; i++ {
			norm += absSq(h.At(i, col))
		}
		norm = math.Sqrt(norm)
		if norm < 1e-300 {
			continue
		}
		x0 := h.At(col+1, col)
		alpha := complex(-norm, 0)
		if x0 != 0 {
			alpha = -x0 / complex(cmplx.Abs(x0), 0) * complex(norm, 0)
		}
		var vnorm float64
		for i := col + 1; i < n; i++ {
			v[i] = h.At(i, col)
		}
		v[col+1] -= alpha
		for i := col + 1; i < n; i++ {
			vnorm += absSq(v[i])
		}
		if vnorm < 1e-300 {
			continue
		}
		tau := complex(2/vnorm, 0)

		// h <- P h, rows col+1..n: row_i -= tau * v_i * (v† h)_j.
		parallelFor(n, func(lo, hi int) {
			for j := lo; j < hi; j++ {
				var dot complex128
				for i := col + 1; i < n; i++ {
					dot += cmplx.Conj(v[i]) * h.At(i, j)
				}
				dot *= tau
				for i := col + 1; i < n; i++ {
					h.Set(i, j, h.At(i, j)-v[i]*dot)
				}
			}
		})
		// h <- h P, columns col+1..n: col_j -= tau * (h v) * conj(v_j).
		parallelFor(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				row := h.Row(i)
				var dot complex128
				for j := col + 1; j < n; j++ {
					dot += row[j] * v[j]
				}
				dot *= tau
				for j := col + 1; j < n; j++ {
					row[j] -= dot * cmplx.Conj(v[j])
				}
			}
		})
		// q <- q P (accumulate the same right-side update).
		parallelFor(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				row := q.Row(i)
				var dot complex128
				for j := col + 1; j < n; j++ {
					dot += row[j] * v[j]
				}
				dot *= tau
				for j := col + 1; j < n; j++ {
					row[j] -= dot * cmplx.Conj(v[j])
				}
			}
		})
		// Zero the annihilated entries exactly.
		h.Set(col+1, col, alpha)
		for i := col + 2; i < n; i++ {
			h.Set(i, col, 0)
		}
	}
}

// schur reduces the upper-Hessenberg h to upper-triangular (Schur) form in
// place via the explicit single-shift QR iteration with Wilkinson shifts,
// accumulating the unitary transform into q.
func schur(h, q *Matrix) error {
	n := h.Rows
	if n <= 1 {
		return nil
	}
	eps := 1e-14
	hi := n - 1
	iterSinceDeflate := 0
	for hi > 0 {
		// Deflate converged subdiagonals.
		deflated := false
		for k := hi; k > 0; k-- {
			sub := cmplx.Abs(h.At(k, k-1))
			if sub <= eps*(cmplx.Abs(h.At(k-1, k-1))+cmplx.Abs(h.At(k, k))) {
				h.Set(k, k-1, 0)
				if k == hi {
					hi--
					iterSinceDeflate = 0
					deflated = true
					break
				}
			}
		}
		if deflated {
			continue
		}
		if hi == 0 {
			break
		}
		// Active block [lo, hi]: walk up until a zero subdiagonal.
		lo := hi
		for lo > 0 && h.At(lo, lo-1) != 0 {
			lo--
		}
		iterSinceDeflate++
		if iterSinceDeflate > maxQRSweeps {
			return errors.New("linalg: QR iteration failed to converge")
		}
		shift := wilkinsonShift(h, hi)
		if iterSinceDeflate%20 == 10 {
			// Exceptional shift to break symmetric stalls (ad hoc, as in
			// the classic HQR): derived from the subdiagonal magnitudes.
			s := cmplx.Abs(h.At(hi, hi-1))
			if hi >= 2 {
				s += cmplx.Abs(h.At(hi-1, hi-2))
			}
			shift = h.At(hi, hi) + complex(0.75*s, 0)
		}
		qrStep(h, q, lo, hi, shift)
	}
	return nil
}

// wilkinsonShift returns the eigenvalue of the trailing 2x2 block of the
// active matrix closest to its bottom-right entry.
func wilkinsonShift(h *Matrix, hi int) complex128 {
	a := h.At(hi-1, hi-1)
	b := h.At(hi-1, hi)
	c := h.At(hi, hi-1)
	d := h.At(hi, hi)
	tr := a + d
	det := a*d - b*c
	disc := cmplx.Sqrt(tr*tr - 4*det)
	l1 := (tr + disc) / 2
	l2 := (tr - disc) / 2
	if cmplx.Abs(l1-d) < cmplx.Abs(l2-d) {
		return l1
	}
	return l2
}

// givens holds the parameters of a complex Givens rotation
// G = [[ca, cb], [-conj(cb), conj(ca)]] chosen to zero the second
// component of the pivot pair.
type givens struct {
	ca, cb complex128
}

func makeGivens(a, b complex128) givens {
	r := math.Hypot(cmplx.Abs(a), cmplx.Abs(b))
	if r == 0 {
		return givens{ca: 1, cb: 0}
	}
	inv := complex(1/r, 0)
	return givens{ca: cmplx.Conj(a) * inv, cb: cmplx.Conj(b) * inv}
}

// qrStep performs one explicit shifted QR iteration on the Hessenberg block
// [lo, hi]: H - sI = QR (Givens), H <- RQ + sI, with Q accumulated.
func qrStep(h, q *Matrix, lo, hi int, shift complex128) {
	n := h.Rows
	m := hi - lo + 1
	if m < 2 {
		return
	}
	rots := make([]givens, m-1)
	// Subtract the shift on the diagonal of the active block.
	for i := lo; i <= hi; i++ {
		h.Set(i, i, h.At(i, i)-shift)
	}
	// Left sweep: zero subdiagonals with Givens rotations on row pairs.
	for k := 0; k < m-1; k++ {
		i := lo + k
		g := makeGivens(h.At(i, i), h.At(i+1, i))
		rots[k] = g
		// Apply to rows i, i+1 over columns i..n-1 (Hessenberg: zeros left of i).
		r0 := h.Row(i)
		r1 := h.Row(i + 1)
		for j := i; j < n; j++ {
			x, y := r0[j], r1[j]
			r0[j] = g.ca*x + g.cb*y
			r1[j] = -cmplx.Conj(g.cb)*x + cmplx.Conj(g.ca)*y
		}
		h.Set(i+1, i, 0)
	}
	// Right sweep: H <- H G†_0 G†_1 ... ; each G†_k touches columns i, i+1.
	for k := 0; k < m-1; k++ {
		i := lo + k
		g := rots[k]
		// Column update for rows lo..min(i+2, hi) of the full matrix rows 0..i+1? Rows up to i+1 have
		// entries in these columns within the active block; rows above lo
		// (0..lo-1) also hold entries in these columns.
		top := i + 2
		if top > hi+1 {
			top = hi + 1
		}
		for r := 0; r < top; r++ {
			row := h.Row(r)
			x, y := row[i], row[i+1]
			row[i] = x*cmplx.Conj(g.ca) + y*cmplx.Conj(g.cb)
			row[i+1] = -x*g.cb + y*g.ca
		}
		for r := 0; r < n; r++ {
			row := q.Row(r)
			x, y := row[i], row[i+1]
			row[i] = x*cmplx.Conj(g.ca) + y*cmplx.Conj(g.cb)
			row[i+1] = -x*g.cb + y*g.ca
		}
	}
	// Restore the shift.
	for i := lo; i <= hi; i++ {
		h.Set(i, i, h.At(i, i)+shift)
	}
}

// triangularEigenvectors back-substitutes eigenvectors of the upper
// triangular t and rotates them by q: columns of the result are unit-norm
// eigenvectors of the original matrix.
func triangularEigenvectors(t, q *Matrix) *Matrix {
	n := t.Rows
	vecs := NewMatrix(n, n)
	y := make([]complex128, n)
	for k := 0; k < n; k++ {
		lambda := t.At(k, k)
		for i := range y {
			y[i] = 0
		}
		y[k] = 1
		for i := k - 1; i >= 0; i-- {
			var acc complex128
			row := t.Row(i)
			for j := i + 1; j <= k; j++ {
				acc += row[j] * y[j]
			}
			den := t.At(i, i) - lambda
			if cmplx.Abs(den) < 1e-13 {
				// (Near-)degenerate eigenvalue: perturb to keep the
				// back-substitution bounded; the resulting vector still
				// spans the eigenspace to working precision.
				den = complex(1e-13, 0)
			}
			y[i] = -acc / den
		}
		// v = Q y, normalised.
		var norm float64
		col := make([]complex128, n)
		for i := 0; i < n; i++ {
			var acc complex128
			row := q.Row(i)
			for j := 0; j <= k; j++ {
				acc += row[j] * y[j]
			}
			col[i] = acc
			norm += absSq(acc)
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			norm = 1
		}
		for i := 0; i < n; i++ {
			vecs.Set(i, k, col[i]/complex(norm, 0))
		}
	}
	return vecs
}

func absSq(z complex128) float64 {
	return real(z)*real(z) + imag(z)*imag(z)
}
