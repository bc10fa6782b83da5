package fft

import (
	"fmt"

	"repro/internal/bitops"
	"repro/internal/par"
)

// TransformField applies the plan's unitary DFT (or its inverse) along the
// index-bit field [pos, pos+width) of amps, where width = log2(plan size):
// for every setting of the bits outside the field, the 2^width amplitudes
// addressed by the field bits form one fibre that is transformed in place,
// the fibres shared out over the given number of workers. This is the
// QFT-on-a-register-field shortcut of the paper's Section 3.2: the
// recognition dispatcher (internal/recognize), the cluster's per-shard
// transforms and the emulated phase estimation (internal/qpe) execute
// their Fourier regions through it.
//
// With pos = 0 a fibre is a contiguous run of amps and is transformed
// where it lies (Transform in Natural order); otherwise each worker
// gathers its fibres through one buffer of the plan's size.
func (p *Plan) TransformField(amps []complex128, pos uint, inverse bool, workers int) {
	size := p.size
	total := uint64(len(amps))
	if total < size || total%size != 0 {
		panic(fmt.Sprintf("fft: field transform of size %d does not tile %d amplitudes", size, total))
	}
	if pos+p.n > bitops.Log2(total) {
		panic(fmt.Sprintf("fft: field [%d,%d) exceeds index width %d", pos, pos+p.n, bitops.Log2(total)))
	}
	if pos == 0 {
		p.Transform(amps, inverse, Natural, workers)
		return
	}
	p.build(workers)
	outer := total >> p.n
	w := min(uint64(effective(total, workers)), outer)
	scale := p.unitaryScale()
	par.For(int(w), func(k int) {
		p.stridedFibres(amps, make([]complex128, size), pos, inverse, scale, uint64(k)*outer/w, uint64(k+1)*outer/w)
	})
}

// stridedFibres transforms fibres [lo, hi) of the field at pos > 0 on the
// calling goroutine, gathering each through buf (of the plan's size).
//
//qemu:hotpath
func (p *Plan) stridedFibres(amps, buf []complex128, pos uint, inverse bool, scale float64, lo, hi uint64) {
	stride := uint64(1) << pos
	for o := lo; o < hi; o++ {
		rest := expandOuter(o, pos, p.n)
		for k := range buf {
			buf[k] = amps[rest|uint64(k)*stride]
		}
		p.apply(buf, inverse, Natural, scale, 1)
		for k, v := range buf {
			amps[rest|uint64(k)*stride] = v
		}
	}
}

// expandOuter maps a counter over the index bits outside the field
// [pos, pos+width) to the corresponding amplitude index with the field
// zeroed.
func expandOuter(o uint64, pos, width uint) uint64 {
	low := o & bitops.Mask(pos)
	high := (o >> pos) << (pos + width)
	return high | low
}
