//go:build amd64

package statevec

import "repro/internal/cpufeat"

// useDenseAsm selects the body of the dense block sweep: the AVX2/FMA
// assembly when the CPU and the OS support it, the pure-Go chunk
// functions otherwise. It is decided once, here; tests flip it to run the
// two bodies side by side.
var useDenseAsm = cpufeat.HasAVX2FMA()

// denseSweepAVX2 is the assembly body (dense_amd64.s). It checks no
// bounds: callers go through denseChunkAsm.
//
//go:noescape
func denseSweepAVX2(amp, m *complex128, offs *uint64, dim, qmask, base, count uint64)

// denseAsmWork bounds one assembly call, in complex multiply-adds (4^w
// per group). Assembly has no preemption points, so the bound is how long
// a chunk can hold off a stop-the-world — a few hundred microseconds at
// any width — while keeping the call overhead far below the work. The
// group count it yields is even at every width, so only a chunk's last
// call can end on the single-group tail.
const denseAsmWork = 1 << 20

// denseChunkAsm runs the assembly body over groups [start, end) of lay.
func denseChunkAsm(amp, m []complex128, lay *blockLayout, start, end uint64) {
	dim := uint64(1) << lay.w
	for start < end {
		count := min(end-start, denseAsmWork>>(2*lay.w))
		denseSweepAVX2(&amp[0], &m[0], &lay.offs[0], dim, lay.qmask, lay.groupBase(start), count)
		start += count
	}
}
