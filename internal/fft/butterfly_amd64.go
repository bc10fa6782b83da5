//go:build amd64

package fft

import (
	"fmt"

	"repro/internal/cpufeat"
)

// useButterflyAsm selects the body of the radix-8 butterflies at spans of
// two or more: the AVX2/FMA assembly when the CPU and the OS support it,
// the pure-Go butterflies otherwise. It is decided once, here; tests flip
// it to run the two bodies side by side.
var useButterflyAsm = cpufeat.HasAVX2FMA()

// butterfly8DITAVX2 and butterfly8DIFAVX2 are the assembly body
// (butterfly_amd64.s): the radix-8 butterflies with even flat index t in
// [lo, hi), two per iteration. They check no bounds: callers go through
// butterfly8Asm.
//
//go:noescape
func butterfly8DITAVX2(data, tw *complex128, masks *[8]uint64, h, lo, hi uint64)

//go:noescape
func butterfly8DIFAVX2(data, tw *complex128, masks *[8]uint64, h, lo, hi uint64)

// directionMasks are the two sign masks the assembly applies, per
// direction: lanes 0-3 are XORed onto the duplicated imaginary part of
// every loaded twiddle (nothing forward, a sign flip — conjugation —
// inverse); lanes 4-7 onto a lane-swapped value to finish its quarter
// turn: i·(a+bi) = -b+ai negates the even lanes, -i·(a+bi) = b-ai the odd.
var directionMasks = [2][8]uint64{
	{0, 0, 0, 0, sign, 0, sign, 0},
	{sign, sign, sign, sign, 0, sign, 0, sign},
}

const sign = 1 << 63

// butterflyAsmWork bounds one assembly call, in butterflies. Assembly has
// no preemption points, so the bound is how long a call can hold off a
// stop-the-world: a few hundred microseconds.
const butterflyAsmWork = 1 << 15

// butterfly8Asm runs the assembly body over the butterflies [lo, hi) of
// the radix-8 group at stage s >= 1. The checks are the whole
// memory-safety argument of the assembly, which has none: an even range
// inside the vector's size/8 butterflies (so both lanes of an iteration
// are real butterflies of one block) and a table of h/2 runs.
func butterfly8Asm(data, tw []complex128, s uint, lo, hi uint64, dif, inverse bool) {
	h := uint64(1) << s
	if s == 0 || lo&1 != 0 || hi&1 != 0 || lo > hi || hi > uint64(len(data))/8 || uint64(len(tw)) < h/2*twRun {
		panic(fmt.Sprintf("fft: assembly butterflies [%d,%d) at stage %d out of range", lo, hi, s))
	}
	masks := &directionMasks[0]
	if inverse {
		masks = &directionMasks[1]
	}
	for lo < hi {
		end := min(hi, lo+butterflyAsmWork)
		if dif {
			butterfly8DIFAVX2(&data[0], &tw[0], masks, h, lo, end)
		} else {
			butterfly8DITAVX2(&data[0], &tw[0], masks, h, lo, end)
		}
		lo = end
	}
}
