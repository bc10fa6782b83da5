//go:build amd64

package statevec

import "repro/internal/cpufeat"

// denseBody is decided once, here, from CPUID/XGETBV alone; tests run the
// bodies below the host's choice side by side (withDenseBody).
var denseBody = hostDenseBody()

func hostDenseBody() denseBodyKind {
	switch {
	case cpufeat.HasAVX512():
		return bodyAVX512
	case cpufeat.HasAVX2FMA():
		return bodyAVX2
	}
	return bodyGo
}

// denseSweepAVX2 is the two-groups-per-YMM assembly body (dense_amd64.s):
// any count >= 1. It checks no bounds: callers go through denseChunkAsm.
//
//go:noescape
func denseSweepAVX2(amp, m *complex128, offs *uint64, dim, qmask, base, count uint64)

// denseSweepAVX512 is the four-groups-per-ZMM assembly body
// (dense512_amd64.s): count must be a positive multiple of 4. It checks no
// bounds either.
//
//go:noescape
func denseSweepAVX512(amp, m *complex128, offs *uint64, dim, qmask, base, count uint64)

// denseAsmWork bounds one assembly call, in complex multiply-adds (4^w
// per group). Assembly has no preemption points, so the bound is how long
// a chunk can hold off a stop-the-world — a few hundred microseconds at
// any width — while keeping the call overhead far below the work. The
// group count it yields is a multiple of 4 at every width (16 at w = 8),
// so only a chunk's last groups can be left over for a narrower body.
const denseAsmWork = 1 << 20

// denseChunkAsm runs the host's assembly body over groups [start, end) of
// lay. The ZMM body has no tail code: it takes the multiple of 4 in each
// call's share, and the 0-3 groups left over at the end of the chunk go to
// the YMM body, which handles any count.
func denseChunkAsm(amp, m []complex128, lay *blockLayout, start, end uint64) {
	dim := uint64(1) << lay.w
	for start < end {
		count := min(end-start, denseAsmWork>>(2*lay.w))
		base := lay.groupBase(start)
		if quads := count &^ 3; denseBody == bodyAVX512 && quads != 0 {
			count = quads
			denseSweepAVX512(&amp[0], &m[0], &lay.offs[0], dim, lay.qmask, base, count)
		} else {
			denseSweepAVX2(&amp[0], &m[0], &lay.offs[0], dim, lay.qmask, base, count)
		}
		start += count
	}
}

// factorSweepAVX512 is the ZMM body of the factored block sweep
// (factor512_amd64.s): count must be a positive multiple of 4, the passes
// must be factorPasses' for the layout offs, dim and qmask describe, and
// lanes must be nonzero unless the quads are 64-byte runs. It checks no
// bounds: callers go through factorChunkAsm.
//
//go:noescape
func factorSweepAVX512(amp *complex128, offs *uint64, passes *factorPass, npasses, dim, qmask, base, count, lanes uint64)

// factorChunkAsm runs the ZMM body over groups [start, end) of lay, a
// multiple of 4 of them, in calls bounded like the dense sweep's (a
// factored group costs fewer multiply-adds than the dense 4^w).
func factorChunkAsm(amp []complex128, npasses int, sc *factorScratch, lay *blockLayout, start, end uint64) {
	for start < end {
		count := min(end-start, denseAsmWork>>(2*lay.w))
		base := lay.groupBase(start)
		passes, lanes := &sc.runs[0], uint64(0)
		if (lay.qmask|base)&3 != 0 {
			passes, lanes = &sc.lanes[0], 1
		}
		factorSweepAVX512(&amp[0], &lay.offs[0], passes, uint64(npasses), 1<<lay.w, lay.qmask, base, count, lanes)
		start += count
	}
}
