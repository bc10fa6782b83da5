package linalg

import (
	"fmt"
	"runtime"
	"sync"
)

// gemmBlock is the cache-blocking tile edge for the k dimension.
const gemmBlock = 64

// Mul returns m*other using a blocked, parallel triple loop in i-k-j order
// (streaming writes to the output row, unit-stride reads of both operands).
// This is the repository's zgemm: every emulated QPE repeated-squaring step
// runs through here.
func (m *Matrix) Mul(other *Matrix) *Matrix {
	if m.Cols != other.Rows {
		panic(fmt.Sprintf("linalg: Mul dimension mismatch: %dx%d * %dx%d",
			m.Rows, m.Cols, other.Rows, other.Cols))
	}
	out := NewMatrix(m.Rows, other.Cols)
	mulInto(out, m, other)
	return out
}

func mulInto(out, a, b *Matrix) {
	n, k, p := a.Rows, a.Cols, b.Cols
	parallelFor(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			arow := a.Row(i)
			orow := out.Row(i)
			for kk := 0; kk < k; kk += gemmBlock {
				kend := kk + gemmBlock
				if kend > k {
					kend = k
				}
				for l := kk; l < kend; l++ {
					av := arow[l]
					if av == 0 {
						continue
					}
					brow := b.Data[l*p : (l+1)*p]
					for j, bv := range brow {
						orow[j] += av * bv
					}
				}
			}
		}
	})
}

// strassenCutoff is the dimension below which Strassen recursion falls back
// to the blocked kernel; below this the seven-multiplication bookkeeping
// costs more than it saves.
const strassenCutoff = 128

// Strassen returns m*other using Strassen's O(n^2.807) recursion, the
// algorithm the paper invokes to lower the QPE repeated-squaring cross-over
// from b >= 2n to b > 1.8n. Both operands must be square with power-of-two
// dimension (all unitaries in this repository are 2^n x 2^n).
func (m *Matrix) Strassen(other *Matrix) *Matrix {
	if m.Rows != m.Cols || other.Rows != other.Cols || m.Cols != other.Rows {
		panic("linalg: Strassen requires equal square operands")
	}
	if m.Rows&(m.Rows-1) != 0 {
		panic("linalg: Strassen requires power-of-two dimension")
	}
	return strassen(m, other)
}

func strassen(a, b *Matrix) *Matrix {
	n := a.Rows
	if n <= strassenCutoff {
		return a.Mul(b)
	}
	h := n / 2
	a11, a12, a21, a22 := a.quadrants(h)
	b11, b12, b21, b22 := b.quadrants(h)

	// The seven products, computed concurrently: the recursion tree gives
	// ample parallelism on top of the leaf GEMM's own row parallelism.
	var p [7]*Matrix
	tasks := []func() *Matrix{
		func() *Matrix { return strassen(a11.Add(a22), b11.Add(b22)) },
		func() *Matrix { return strassen(a21.Add(a22), b11) },
		func() *Matrix { return strassen(a11, b12.Sub(b22)) },
		func() *Matrix { return strassen(a22, b21.Sub(b11)) },
		func() *Matrix { return strassen(a11.Add(a12), b22) },
		func() *Matrix { return strassen(a21.Sub(a11), b11.Add(b12)) },
		func() *Matrix { return strassen(a12.Sub(a22), b21.Add(b22)) },
	}
	if n >= 2*strassenCutoff && runtime.GOMAXPROCS(0) > 1 {
		var wg sync.WaitGroup
		for i, t := range tasks {
			wg.Add(1)
			go func(i int, t func() *Matrix) {
				defer wg.Done()
				p[i] = t()
			}(i, t)
		}
		wg.Wait()
	} else {
		for i, t := range tasks {
			p[i] = t()
		}
	}

	c11 := p[0].Add(p[3]).Sub(p[4]).Add(p[6])
	c12 := p[2].Add(p[4])
	c21 := p[1].Add(p[3])
	c22 := p[0].Sub(p[1]).Add(p[2]).Add(p[5])

	out := NewMatrix(n, n)
	out.setQuadrant(0, 0, c11)
	out.setQuadrant(0, h, c12)
	out.setQuadrant(h, 0, c21)
	out.setQuadrant(h, h, c22)
	return out
}

// quadrants copies out the four h x h corner blocks.
func (m *Matrix) quadrants(h int) (a11, a12, a21, a22 *Matrix) {
	a11, a12 = NewMatrix(h, h), NewMatrix(h, h)
	a21, a22 = NewMatrix(h, h), NewMatrix(h, h)
	for i := 0; i < h; i++ {
		top := m.Row(i)
		bot := m.Row(i + h)
		copy(a11.Row(i), top[:h])
		copy(a12.Row(i), top[h:])
		copy(a21.Row(i), bot[:h])
		copy(a22.Row(i), bot[h:])
	}
	return a11, a12, a21, a22
}

func (m *Matrix) setQuadrant(r0, c0 int, q *Matrix) {
	for i := 0; i < q.Rows; i++ {
		copy(m.Row(r0 + i)[c0:c0+q.Cols], q.Row(i))
	}
}

// parallelFor splits [0, n) across GOMAXPROCS goroutines.
func parallelFor(n int, fn func(lo, hi int)) {
	w := runtime.GOMAXPROCS(0)
	if n < 2 || w <= 1 {
		fn(0, n)
		return
	}
	if w > n {
		w = n
	}
	var wg sync.WaitGroup
	chunk := (n + w - 1) / w
	for start := 0; start < n; start += chunk {
		end := start + chunk
		if end > n {
			end = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(start, end)
	}
	wg.Wait()
}
