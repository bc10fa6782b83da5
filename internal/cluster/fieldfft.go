package cluster

import (
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/fft"
)

// Field-axis four-step FFT: the distributed lowering for Fourier fields
// wider than a shard but narrower than the register — the mid-width gap
// between the local-fft substrate (width <= L) and the full-register
// four-step factorisation. The same N = N1 * N2 decomposition is applied
// along the FIELD axis only: split the width-w field into a high half of
// n1 = w/2 bits and a low half of n2 = w - n1 bits, and run
//
//	(1) per-shard FFTs of length N1 over the high sub-field,
//	(2) the twiddle diagonal exp(sign 2 pi i k1 f2 / W),
//	(3) per-shard FFTs of length N2 over the low sub-field,
//	(4) the four-step output reorder k = k1 + N1 k2 — a pure sub-field
//	    relabelling of the placement, costing no communication.
//
// Each sub-field transform is made shard-local by one placement remap
// (all-to-all), so the whole lowering pays two collective rounds —
// one fewer than the full-register four-step's three transposes, because
// the non-field qubits never have to move through a matrix transpose.
// Feasible whenever both halves fit a shard: ceil(w/2) <= L, i.e. fields
// up to twice the shard width.
func (c *Cluster) distributedFFTField(pos, w uint, inverse bool) error {
	n1 := w / 2
	n2 := w - n1
	if n2 > c.L {
		return fmt.Errorf("cluster: field of %d qubits needs %d-qubit halves, shards hold %d",
			w, n2, c.L)
	}
	planHigh, err := fft.NewPlan(uint64(1) << n1)
	if err != nil {
		return err
	}
	planLow, err := fft.NewPlan(uint64(1) << n2)
	if err != nil {
		return err
	}
	sign := +1.0
	if inverse {
		sign = -1.0
	}

	// Step 1: FFT the high sub-field (the j1 axis of the N1 x N2 matrix
	// the field value factors into). One remap makes its bits shard-local
	// at physical positions [0, n1); the fibres are then stride-1.
	c.remapFieldLocal(pos+n2, n1)
	c.eachNode(func(p int) {
		planHigh.TransformField(c.shard(p), 0, inverse, 1)
	})

	// Step 2: twiddle. The high sub-field now holds the transform index
	// k1, the low sub-field still the input index f2; element (k1, f2)
	// picks up exp(sign 2 pi i k1 f2 / W) — a diagonal over the field's
	// qubits with one entry per field value, applied like every other
	// table diagonal, whatever the placement.
	mask2 := uint64(1)<<n2 - 1
	theta := sign * 2 * math.Pi / float64(uint64(1)<<w)
	twiddle := make([]complex128, uint64(1)<<w)
	for v := range twiddle {
		k1, f2 := uint64(v)>>n2, uint64(v)&mask2
		twiddle[v] = cmplx.Exp(complex(0, theta*float64(k1*f2)))
	}
	field := make([]uint, w)
	for j := range field {
		field[j] = pos + uint(j)
	}
	c.applyDiagTable(twiddle, field)

	// Step 3: FFT the low sub-field (the j2 axis).
	c.remapFieldLocal(pos, n2)
	c.eachNode(func(p int) {
		planLow.TransformField(c.shard(p), 0, inverse, 1)
	})

	// Step 4: four-step output order is k = k1 + N1 k2 — the sub-fields
	// swap places. Relabelling the placement moves no amplitudes: the
	// physical slots that held the low sub-field are re-read as the high
	// one and vice versa.
	old := append([]uint(nil), c.pos...)
	for j := uint(0); j < n2; j++ {
		c.pos[pos+n1+j] = old[pos+j]
	}
	for t := uint(0); t < n1; t++ {
		c.pos[pos+t] = old[pos+n2+t]
	}
	return nil
}
