//go:build amd64

package statevec

import "repro/internal/cpufeat"

// diagSweepAVX2 is the two-groups-per-YMM body of the diagonal block sweep
// (diag_amd64.s): count must be a positive multiple of 2. It checks no
// bounds: callers go through diagChunkAsm.
//
//go:noescape
func diagSweepAVX2(amp, d *complex128, offs *uint64, dim, qmask, base, count uint64)

// diagSweepAVX512 is the four-groups-per-ZMM body (diag_amd64.s): count
// must be a positive multiple of 4. It checks no bounds either.
//
//go:noescape
func diagSweepAVX512(amp, d *complex128, offs *uint64, dim, qmask, base, count uint64)

// diagAsmWork bounds one call of a diagonal body, in amplitudes: a few
// hundred microseconds without a preemption point, as denseAsmWork bounds
// the dense body's. The group count it yields is a multiple of 4 at every
// width.
const diagAsmWork = 1 << 18

// diagChunkAsm runs the host's assembly body over the whole quads (ZMM) or
// pairs (YMM) of groups [start, end) of lay and returns where it stopped:
// the 0-3 groups left at the end of the chunk are the caller's.
//
//qemu:hotpath
func diagChunkAsm(amp, d []complex128, lay *blockLayout, start, end uint64) uint64 {
	unit := uint64(2)
	if cpufeat.Active() == cpufeat.AVX512 {
		unit = 4
	}
	stop := start + (end-start)&^(unit-1)
	dim := uint64(1) << lay.w
	for start < stop {
		count := min(stop-start, diagAsmWork>>lay.w)
		base := spreadAround(start, lay.qmask)
		if unit == 4 {
			diagSweepAVX512(&amp[0], &d[0], &lay.offs[0], dim, lay.qmask, base, count)
		} else {
			diagSweepAVX2(&amp[0], &d[0], &lay.offs[0], dim, lay.qmask, base, count)
		}
		start += count
	}
	return stop
}
