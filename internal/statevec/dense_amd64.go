//go:build amd64

package statevec

// useDenseAsm selects the body of the dense block sweep: the AVX2/FMA
// assembly when the CPU and the OS support it, the pure-Go chunk
// functions otherwise. It is decided once, here; tests flip it to run the
// two bodies side by side.
var useDenseAsm = hasAVX2FMA()

// hasAVX2FMA reports whether denseSweepAVX2's instructions may run: the
// CPU implements AVX2 and FMA3, and the OS saves the YMM state (OSXSAVE
// set and XCR0 enabling both SSE and AVX state).
func hasAVX2FMA() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const fma, osxsave, avx = 1 << 12, 1 << 27, 1 << 28
	if _, _, c, _ := cpuid(1, 0); c&(fma|osxsave|avx) != fma|osxsave|avx {
		return false
	}
	if xgetbv0()&6 != 6 {
		return false
	}
	const avx2 = 1 << 5
	_, b, _, _ := cpuid(7, 0)
	return b&avx2 != 0
}

// cpuid executes CPUID with EAX=leaf, ECX=sub.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 returns the low half of XCR0. It may only be called when CPUID
// reports OSXSAVE.
func xgetbv0() uint32

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
