package cluster

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"

	"repro/internal/fft"
)

// EmulateQFT performs the quantum Fourier transform of the paper's Eq. 4
// on the distributed state via the distributed four-step FFT: three
// all-to-all transposition steps (the "3" of Eq. 5) interleaved with
// node-local FFTs and a twiddle scaling. It is the emulator's Figure 3
// path on the cluster substrate.
func (c *Cluster) EmulateQFT() error { return c.distributedFFT(+1, true) }

// distributedFFT runs the four-step factorisation N = N1 * N2 with the
// state viewed as an N1 x N2 row-major matrix distributed by row blocks.
// The emulation speaks the canonical (identity) layout, so a drifted
// placement is restored first.
func (c *Cluster) distributedFFT(sign int, unitary bool) error {
	c.Canonicalize()
	n := c.NumQubits()
	n1 := n / 2
	n2 := n - n1
	rows := uint64(1) << n1
	cols := uint64(1) << n2
	if rows < uint64(c.P) || cols < uint64(c.P) {
		return fmt.Errorf("cluster: %d nodes too many for a %d-qubit four-step FFT", c.P, n)
	}
	size := rows * cols

	planRows, err := fft.NewPlan(rows)
	if err != nil {
		return err
	}
	planCols, err := fft.NewPlan(cols)
	if err != nil {
		return err
	}

	// Step 1: all-to-all transpose: N1 x N2 -> N2 x N1.
	c.allToAllTranspose(rows, cols)
	// Step 2: local FFTs of length N1 over the rows each node now owns.
	c.eachNode(func(p int) {
		shard := c.shard(p)
		for off := uint64(0); off+rows <= uint64(len(shard)); off += rows {
			row := shard[off : off+rows]
			if sign >= 0 {
				planRows.ForwardSerial(row)
			} else {
				planRows.InverseSerial(row)
			}
		}
	})
	// Step 3: twiddle multiply. Node p owns global indices
	// [p*local, (p+1)*local) of the N2 x N1 matrix; element (c2, r1) at
	// global index c2*rows + r1 picks up exp(sign 2 pi i r1 c2 / N).
	// Within a run of fixed c2 the factor advances by a constant rotation,
	// so a multiplicative recurrence replaces the per-element exponential;
	// it is re-anchored periodically to stop roundoff drift. The unitary
	// 1/sqrt(N) rides on the anchors, saving a sweep of its own.
	scale := complex(1, 0)
	if unitary {
		scale = complex(1/math.Sqrt(float64(size)), 0)
	}
	local := c.LocalSize()
	c.eachNode(func(p int) {
		shard := c.shard(p)
		base := uint64(p) * local
		i := uint64(0)
		for i < uint64(len(shard)) {
			g := base + i
			c2 := g / rows
			r1 := g % rows
			runLen := rows - r1 // elements left in this c2 run
			if rem := uint64(len(shard)) - i; runLen > rem {
				runLen = rem
			}
			theta := 2 * math.Pi * float64(c2) / float64(size)
			if sign < 0 {
				theta = -theta
			}
			step := cmplx.Exp(complex(0, theta))
			w := scale * cmplx.Exp(complex(0, theta*float64(r1)))
			for j := uint64(0); j < runLen; j++ {
				if j&255 == 0 && j > 0 {
					w = scale * cmplx.Exp(complex(0, theta*float64(r1+j)))
				}
				shard[i+j] *= w
				w *= step
			}
			i += runLen
		}
	})
	// Step 4: all-to-all transpose back: N2 x N1 -> N1 x N2.
	c.allToAllTranspose(cols, rows)
	// Step 5: local FFTs of length N2.
	c.eachNode(func(p int) {
		shard := c.shard(p)
		for off := uint64(0); off+cols <= uint64(len(shard)); off += cols {
			row := shard[off : off+cols]
			if sign >= 0 {
				planCols.ForwardSerial(row)
			} else {
				planCols.InverseSerial(row)
			}
		}
	})
	// Step 6: final all-to-all transpose for standard output ordering.
	c.allToAllTranspose(rows, cols)
	return nil
}

// allToAllTranspose transposes the distributed rows x cols row-major
// matrix — one collective all-to-all, accounted as such. Element (r', c')
// of the cols x rows result is source element (c', r'): the low log2(rows)
// index bits move to the top and the rest slide down, an index-bit
// rotation by log2(cols) for permuteBits. With at least one row and one
// column per node, every node sends each other node 1/P of its shard.
func (c *Cluster) allToAllTranspose(rows, cols uint64) {
	n := c.NumQubits()
	n2 := uint(bits.TrailingZeros64(cols))
	srcOf := make([]uint, n)
	for p := range srcOf {
		srcOf[p] = (uint(p) + n2) % n
	}
	c.permuteBits(srcOf)
}
