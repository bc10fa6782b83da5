//go:build amd64

package cpufeat

var (
	avx2fma = probeAVX2FMA()
	avx512  = avx2fma && probeAVX512F()
)

// HasAVX2FMA reports whether AVX2 and FMA3 instructions may run: the CPU
// implements both, and the OS saves the YMM state (OSXSAVE set and XCR0
// enabling both SSE and AVX state). The answer is fixed at package init.
func HasAVX2FMA() bool { return avx2fma }

func probeAVX2FMA() bool {
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

// HasAVX512 reports whether AVX-512 Foundation instructions may run, and
// AVX2/FMA3 beside them (the ZMM kernel bodies leave their tails to the YMM
// ones): HasAVX2FMA holds, the CPU implements AVX512F, and XCR0 enables
// the opmask registers and both halves of the ZMM state on top of SSE and
// AVX. The answer is fixed at package init.
func HasAVX512() bool { return avx512 }

// probeAVX512F is only called once probeAVX2FMA has passed: leaf 7 exists
// and XGETBV may run.
func probeAVX512F() bool {
	const sse, avx, opmask, zmmHi256, hi16ZMM = 1 << 1, 1 << 2, 1 << 5, 1 << 6, 1 << 7
	const state = sse | avx | opmask | zmmHi256 | hi16ZMM
	if xgetbv0()&state != state {
		return false
	}
	const avx512f = 1 << 16
	_, b, _, _ := cpuid(7, 0)
	return b&avx512f != 0
}

// cpuid executes CPUID with EAX=leaf, ECX=sub.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 returns the low half of XCR0. It may only be called when CPUID
// reports OSXSAVE.
func xgetbv0() uint32
