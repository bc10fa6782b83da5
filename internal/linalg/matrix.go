// Package linalg is a handwritten dense complex linear-algebra kernel
// standing in for the Intel MKL routines the paper uses: a blocked parallel
// matrix-matrix product (zgemm), Strassen's algorithm, and a
// Hessenberg-reduction + shifted-QR eigensolver (zgeev). The emulated
// quantum phase estimation of Section 3.3 is built entirely on these.
package linalg

import (
	"fmt"
	"math/cmplx"
)

// Matrix is a dense row-major complex matrix.
type Matrix struct {
	Rows, Cols int
	Data       []complex128 // len == Rows*Cols, element (i,j) at i*Cols+j
}

// NewMatrix returns a zero rows x cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("linalg: negative dimension")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]complex128, rows*cols)}
}

// Identity returns the n x n identity.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) complex128 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v complex128) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) []complex128 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// ConjTranspose returns the conjugate transpose (adjoint) of m.
func (m *Matrix) ConjTranspose() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			t.Data[j*t.Cols+i] = cmplx.Conj(v)
		}
	}
	return t
}

// Add returns m + other.
func (m *Matrix) Add(other *Matrix) *Matrix {
	m.mustSameShape(other)
	out := NewMatrix(m.Rows, m.Cols)
	for i, v := range m.Data {
		out.Data[i] = v + other.Data[i]
	}
	return out
}

// Sub returns m - other.
func (m *Matrix) Sub(other *Matrix) *Matrix {
	m.mustSameShape(other)
	out := NewMatrix(m.Rows, m.Cols)
	for i, v := range m.Data {
		out.Data[i] = v - other.Data[i]
	}
	return out
}

// Scale returns s*m.
func (m *Matrix) Scale(s complex128) *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	for i, v := range m.Data {
		out.Data[i] = s * v
	}
	return out
}

// MaxAbsDiff returns the largest entrywise |m - other|.
func (m *Matrix) MaxAbsDiff(other *Matrix) float64 {
	m.mustSameShape(other)
	var mx float64
	for i, v := range m.Data {
		if d := cmplx.Abs(v - other.Data[i]); d > mx {
			mx = d
		}
	}
	return mx
}

// IsUnitary reports whether m†m is within eps of the identity (entrywise).
func (m *Matrix) IsUnitary(eps float64) bool {
	if m.Rows != m.Cols {
		return false
	}
	p := m.ConjTranspose().Mul(m)
	for i := 0; i < p.Rows; i++ {
		for j := 0; j < p.Cols; j++ {
			want := complex128(0)
			if i == j {
				want = 1
			}
			if cmplx.Abs(p.At(i, j)-want) > eps {
				return false
			}
		}
	}
	return true
}

func (m *Matrix) mustSameShape(other *Matrix) {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		panic(fmt.Sprintf("linalg: shape mismatch: %dx%d vs %dx%d", m.Rows, m.Cols, other.Rows, other.Cols))
	}
}

func (m *Matrix) String() string {
	if m.Rows*m.Cols > 64 {
		return fmt.Sprintf("Matrix(%dx%d)", m.Rows, m.Cols)
	}
	s := ""
	for i := 0; i < m.Rows; i++ {
		s += fmt.Sprintf("%v\n", m.Row(i))
	}
	return s
}
