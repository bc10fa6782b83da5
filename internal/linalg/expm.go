package linalg

import (
	"errors"
	"math"

	"repro/internal/par"
)

// padeCoeffs13 are the numerator coefficients of the degree-13 Padé
// approximant to exp (Higham 2005, as used by expm in LAPACK-descended
// libraries). The denominator uses the same coefficients with alternating
// signs via U/V splitting.
var padeCoeffs13 = [14]float64{
	64764752532480000, 32382376266240000, 7771770303897600,
	1187353796428800, 129060195264000, 10559470521600,
	670442572800, 33522128640, 1323241920,
	40840800, 960960, 16380, 182, 1,
}

// theta13 is the scaling threshold for the degree-13 approximant: for
// ||A|| below it, no squaring is needed.
const theta13 = 5.371920351148152

// Expm returns e^A for a square complex matrix via scaling-and-squaring
// with the degree-13 Padé approximant. It is the substrate for exact
// Hamiltonian time evolution U = exp(-iHt) against which the Trotterised
// circuits of package ising are validated.
func Expm(a *Matrix) (*Matrix, error) {
	if a.Rows != a.Cols {
		return nil, errors.New("linalg: Expm requires a square matrix")
	}
	n := a.Rows
	if n == 0 {
		return NewMatrix(0, 0), nil
	}
	norm := a.norm1()
	squarings := 0
	work := a.Clone()
	if norm > theta13 {
		squarings = int(math.Ceil(math.Log2(norm / theta13)))
		scale := complex(math.Pow(2, -float64(squarings)), 0)
		for i := range work.Data {
			work.Data[i] *= scale
		}
	}

	// Padé 13: split into odd/even parts.
	// U = A (b13 A6 + b11 A4 + b9 A2) A6 + b7 A6 + b5 A4 + b3 A2 + b1 I
	// V =   (b12 A6 + b10 A4 + b8 A2) A6 + b6 A6 + b4 A4 + b2 A2 + b0 I
	b := padeCoeffs13
	a2 := work.Mul(work)
	a4 := a2.Mul(a2)
	a6 := a2.Mul(a4)
	id := Identity(n)

	lincomb := func(c6, c4, c2, c0 float64) *Matrix {
		out := NewMatrix(n, n)
		for i := range out.Data {
			out.Data[i] = complex(c6, 0)*a6.Data[i] +
				complex(c4, 0)*a4.Data[i] +
				complex(c2, 0)*a2.Data[i] +
				complex(c0, 0)*id.Data[i]
		}
		return out
	}
	uInner := lincomb(b[13], b[11], b[9], 0)
	u := work.Mul(a6.Mul(uInner).Add(lincomb(b[7], b[5], b[3], b[1])))
	vInner := lincomb(b[12], b[10], b[8], 0)
	v := a6.Mul(vInner).Add(lincomb(b[6], b[4], b[2], b[0]))

	// Solve (V - U) X = (V + U) for X = r13(A).
	num := v.Add(u)
	den := v.Sub(u)
	r, err := solve(den, num)
	if err != nil {
		return nil, err
	}
	for i := 0; i < squarings; i++ {
		r = r.Mul(r)
	}
	return r, nil
}

// norm1 returns the maximum absolute column sum.
func (m *Matrix) norm1() float64 {
	sums := make([]float64, m.Cols)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			sums[j] += math.Hypot(real(v), imag(v))
		}
	}
	mx := 0.0
	for _, s := range sums {
		if s > mx {
			mx = s
		}
	}
	return mx
}

// solve returns X with A X = B via LU decomposition with partial pivoting.
func solve(a, b *Matrix) (*Matrix, error) {
	if a.Rows != a.Cols || b.Rows != a.Rows {
		return nil, errors.New("linalg: solve dimension mismatch")
	}
	n := a.Rows
	lu := a.Clone()
	x := b.Clone()
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for col := 0; col < n; col++ {
		// Pivot.
		p := col
		best := absSq(lu.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := absSq(lu.At(r, col)); v > best {
				best, p = v, r
			}
		}
		if best == 0 {
			return nil, errors.New("linalg: singular matrix in solve")
		}
		if p != col {
			swapRows(lu, p, col)
			swapRows(x, p, col)
		}
		inv := 1 / lu.At(col, col)
		rows := n - col - 1
		chunks, size := rowChunks(rows)
		par.For(chunks, func(c int) {
			for rr, end := c*size, min((c+1)*size, rows); rr < end; rr++ {
				r := col + 1 + rr
				f := lu.At(r, col) * inv
				if f == 0 {
					continue
				}
				lu.Set(r, col, f)
				luRow := lu.Row(r)
				pivRow := lu.Row(col)
				for j := col + 1; j < n; j++ {
					luRow[j] -= f * pivRow[j]
				}
				xRow := x.Row(r)
				xPiv := x.Row(col)
				for j := 0; j < x.Cols; j++ {
					xRow[j] -= f * xPiv[j]
				}
			}
		})
	}
	// Back substitution.
	for col := n - 1; col >= 0; col-- {
		inv := 1 / lu.At(col, col)
		xRow := x.Row(col)
		for j := range xRow {
			xRow[j] *= inv
		}
		for r := 0; r < col; r++ {
			f := lu.At(r, col)
			if f == 0 {
				continue
			}
			dst := x.Row(r)
			for j := range dst {
				dst[j] -= f * xRow[j]
			}
		}
	}
	return x, nil
}

func swapRows(m *Matrix, a, b int) {
	ra, rb := m.Row(a), m.Row(b)
	for j := range ra {
		ra[j], rb[j] = rb[j], ra[j]
	}
}
