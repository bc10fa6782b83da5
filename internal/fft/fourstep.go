package fft

import (
	"fmt"
	"math"
	"math/cmplx"
	"runtime"

	"repro/internal/bitops"
)

// FourStep computes the unnormalised forward transform using Bailey's
// four-step (a.k.a. six-step) algorithm: view the length-N array as an
// N1 x N2 matrix, then
//
//	transpose -> N2 FFTs of length N1 -> twiddle multiply ->
//	transpose -> N1 FFTs of length N2 -> transpose.
//
// The three explicit transpositions are precisely the three all-to-all
// exchanges of a distributed 1-D FFT that the paper's Eq. 5 charges
// 3 * 16N/Bnet for; the cluster back-end runs this same factorisation with
// the transposes realised as network exchanges. Like Forward, it runs on
// GOMAXPROCS workers.
func FourStep(data []complex128, sign int) error {
	size := uint64(len(data))
	if !bitops.IsPowerOfTwo(size) {
		return fmt.Errorf("fft: size %d is not a power of two", size)
	}
	n := bitops.Log2(size)
	if n < 2 {
		// Tiny transforms: fall back to the direct algorithm.
		p, err := NewPlan(size)
		if err != nil {
			return err
		}
		if sign >= 0 {
			p.Forward(data)
		} else {
			p.Inverse(data)
		}
		return nil
	}
	n1 := n / 2
	n2 := n - n1
	rows := uint64(1) << n1 // N1
	cols := uint64(1) << n2 // N2

	workers := runtime.GOMAXPROCS(0)
	scratch := make([]complex128, size)
	planRows, err := NewPlan(rows)
	if err != nil {
		return err
	}
	planCols, err := NewPlan(cols)
	if err != nil {
		return err
	}

	// Step 1: transpose the N1 x N2 matrix (row-major, row r = data[r*cols ...]).
	transpose(scratch, data, rows, cols, workers)
	// Step 2: N2 independent FFTs of length N1 (now the rows of scratch).
	for c := uint64(0); c < cols; c++ {
		row := scratch[c*rows : (c+1)*rows]
		if sign >= 0 {
			planRows.Forward(row)
		} else {
			planRows.Inverse(row)
		}
	}
	// Step 3: twiddle multiply: element (r, c) of the original matrix picks
	// up exp(sign * 2 pi i * r * c / N).
	parallelFor(workers, size, func(lo, hi uint64) {
		for i := lo; i < hi; i++ {
			c := i / rows
			r := i % rows
			theta := 2 * math.Pi * float64(r) * float64(c) / float64(size)
			if sign < 0 {
				theta = -theta
			}
			scratch[i] *= cmplx.Exp(complex(0, theta))
		}
	})
	// Step 4: transpose back to N1 x N2.
	transpose(data, scratch, cols, rows, workers)
	// Step 5: N1 independent FFTs of length N2 (the rows of data).
	for r := uint64(0); r < rows; r++ {
		row := data[r*cols : (r+1)*cols]
		if sign >= 0 {
			planCols.Forward(row)
		} else {
			planCols.Inverse(row)
		}
	}
	// Step 6: final transpose so output index k1*N1 + k0 lands at
	// position k (standard four-step output ordering).
	transpose(scratch, data, rows, cols, workers)
	copy(data, scratch)
	return nil
}

// transpose writes the rows x cols matrix src (row-major) into dst as its
// cols x rows transpose, using cache-friendly blocking.
func transpose(dst, src []complex128, rows, cols uint64, workers int) {
	const block = 32
	parallelFor(workers, (rows+block-1)/block, func(lo, hi uint64) {
		for bi := lo; bi < hi; bi++ {
			r0 := bi * block
			r1 := r0 + block
			if r1 > rows {
				r1 = rows
			}
			for c0 := uint64(0); c0 < cols; c0 += block {
				c1 := c0 + block
				if c1 > cols {
					c1 = cols
				}
				for r := r0; r < r1; r++ {
					for c := c0; c < c1; c++ {
						dst[c*rows+r] = src[r*cols+c]
					}
				}
			}
		}
	})
}

// DFT computes the O(N^2) discrete Fourier transform directly; it is the
// reference the fast paths are validated against in tests.
func DFT(data []complex128, sign int) []complex128 {
	size := len(data)
	out := make([]complex128, size)
	for l := 0; l < size; l++ {
		var acc complex128
		for k := 0; k < size; k++ {
			theta := 2 * math.Pi * float64(k) * float64(l) / float64(size)
			if sign < 0 {
				theta = -theta
			}
			acc += data[k] * cmplx.Exp(complex(0, theta))
		}
		out[l] = acc
	}
	return out
}
