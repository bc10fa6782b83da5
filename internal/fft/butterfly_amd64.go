//go:build amd64

package fft

import (
	"fmt"

	"repro/internal/cpufeat"
)

// butterfly8DITAVX2 and butterfly8DIFAVX2 are the assembly body
// (butterfly_amd64.s): the radix-8 butterflies with even flat index t in
// [lo, hi), two per iteration. They check no bounds: callers go through
// butterfly8Asm.
//
//go:noescape
func butterfly8DITAVX2(data, tw *complex128, masks *[8]uint64, h, lo, hi uint64)

//go:noescape
func butterfly8DIFAVX2(data, tw *complex128, masks *[8]uint64, h, lo, hi uint64)

// butterfly8DITAVX512 and butterfly8DIFAVX512 are the ZMM body
// (butterfly512_amd64.s): the same butterflies, flat index t in [lo, hi)
// a multiple of 4, four per iteration, h >= 4. They check no bounds:
// callers go through butterfly8AVX512.
//
//go:noescape
func butterfly8DITAVX512(data, tw *complex128, masks *[8]uint64, h, lo, hi uint64)

//go:noescape
func butterfly8DIFAVX512(data, tw *complex128, masks *[8]uint64, h, lo, hi uint64)

// head8DITAVX2, head8DIFAVX2, head4DITAVX2 and head4DIFAVX2 are the
// assembly body of the radix-8 and radix-4 heads (head_amd64.s): the
// span-one butterflies t in [lo, hi), lo and hi even, two per iteration,
// with the outputs multiplied by scale; w is W_8, which the radix-4 head
// does not read. They check no bounds: callers go through headAsm.
//
//go:noescape
func head8DITAVX2(data, w *complex128, masks *[8]uint64, scale float64, lo, hi uint64)

//go:noescape
func head8DIFAVX2(data, w *complex128, masks *[8]uint64, scale float64, lo, hi uint64)

//go:noescape
func head4DITAVX2(data, w *complex128, masks *[8]uint64, scale float64, lo, hi uint64)

//go:noescape
func head4DIFAVX2(data, w *complex128, masks *[8]uint64, scale float64, lo, hi uint64)

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
// memory-safety argument of the AVX2 assembly, which has none: an even
// range inside the vector's size/8 butterflies (so both lanes of an
// iteration are real butterflies of one block) and the group's whole
// table. On the AVX-512 body the part of the range aligned to 4 at spans
// of four or more goes to butterfly8AVX512, and the AVX2 body takes the
// rest: the span-two group and a range's unaligned ends.
func butterfly8Asm(data, tw []complex128, s uint, lo, hi uint64, dif, inverse bool) {
	if s == 0 || lo&1 != 0 || hi&1 != 0 || lo > hi || hi > uint64(len(data))/8 || uint64(len(tw)) < tableLen(s) {
		panic(fmt.Sprintf("fft: assembly butterflies [%d,%d) at stage %d out of range", lo, hi, s))
	}
	if cpufeat.Active() == cpufeat.AVX512 && s >= 2 {
		if a, b := (lo+3)&^3, hi&^3; a < b {
			butterflyCalls(cpufeat.AVX2, data, tw, s, lo, a, dif, inverse)
			butterfly8AVX512(data, tw, s, a, b, dif, inverse)
			lo = b
		}
	}
	butterflyCalls(cpufeat.AVX2, data, tw, s, lo, hi, dif, inverse)
}

// butterfly8AVX512 runs the ZMM body over the butterflies [lo, hi) of the
// radix-8 group at stage s >= 2. Its checks are, as butterfly8Asm's, the
// whole memory-safety argument of that assembly: a range aligned to 4
// (so the four lanes of an iteration are real butterflies of one block)
// inside the vector's size/8 butterflies, a span of at least four and the
// group's whole table.
func butterfly8AVX512(data, tw []complex128, s uint, lo, hi uint64, dif, inverse bool) {
	if s < 2 || (lo|hi)&3 != 0 || lo > hi || hi > uint64(len(data))/8 || uint64(len(tw)) < tableLen(s) {
		panic(fmt.Sprintf("fft: AVX-512 butterflies [%d,%d) at stage %d out of range", lo, hi, s))
	}
	butterflyCalls(cpufeat.AVX512, data, tw, s, lo, hi, dif, inverse)
}

// butterflyCalls hands [lo, hi) to the unchecked DIF or DIT function of
// the given assembly body in calls of at most butterflyAsmWork
// butterflies, a multiple of 4.
func butterflyCalls(body cpufeat.Body, data, tw []complex128, s uint, lo, hi uint64, dif, inverse bool) {
	masks := &directionMasks[0]
	if inverse {
		masks = &directionMasks[1]
	}
	h := uint64(1) << s
	for lo < hi {
		end := min(hi, lo+butterflyAsmWork)
		switch {
		case body == cpufeat.AVX512 && dif:
			butterfly8DIFAVX512(&data[0], &tw[0], masks, h, lo, end)
		case body == cpufeat.AVX512:
			butterfly8DITAVX512(&data[0], &tw[0], masks, h, lo, end)
		case dif:
			butterfly8DIFAVX2(&data[0], &tw[0], masks, h, lo, end)
		default:
			butterfly8DITAVX2(&data[0], &tw[0], masks, h, lo, end)
		}
		lo = end
	}
}

// headAsm runs the assembly body over the butterflies [lo, hi) of a
// radix-8 or radix-4 head g. The checks are, as for butterfly8Asm, the
// whole memory-safety argument of the assembly: an even range inside the
// vector's size/radix butterflies and, at radix 8, a table that holds W_8.
func headAsm(g *stageGroup, data []complex128, lo, hi uint64, dif, inverse bool, scale float64) {
	r := uint64(g.radix)
	if g.s != 0 || (r != 8 && r != 4) || lo&1 != 0 || hi&1 != 0 || lo > hi || hi > uint64(len(data))/r ||
		(r == 8 && len(g.tw) <= twW3b) {
		panic(fmt.Sprintf("fft: assembly head butterflies [%d,%d) at radix %d out of range", lo, hi, r))
	}
	masks := &directionMasks[0]
	if inverse {
		masks = &directionMasks[1]
	}
	body, w := head4DITAVX2, (*complex128)(nil)
	switch {
	case r == 8 && dif:
		body, w = head8DIFAVX2, &g.tw[twW3b]
	case r == 8:
		body, w = head8DITAVX2, &g.tw[twW3b]
	case dif:
		body = head4DIFAVX2
	}
	for lo < hi {
		end := min(hi, lo+butterflyAsmWork)
		body(&data[0], w, masks, scale, lo, end)
		lo = end
	}
}
