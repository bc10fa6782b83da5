package fft

import (
	"math"
)

// stageGroup is one fused execution unit of the butterfly network: radix
// 2, 4 or 8, consuming log2(radix) consecutive radix-2 stages starting at
// stage s, with butterflies of span h = 2^s between adjacent legs. Radix 2
// and 4 occur only as the head (s = 0), where every twiddle is a power of
// i and needs no table.
type stageGroup struct {
	s     uint
	radix int
	// tw is a radix-8 group's twiddle table in access order, see packed.
	tw []complex128
}

// stages returns log2(radix).
func (g *stageGroup) stages() uint {
	switch g.radix {
	case 2:
		return 1
	case 4:
		return 2
	}
	return 3
}

// stageGroups tiles the n stages into the fewest full-vector passes: a
// radix-2 or radix-4 head to fix the residue, then radix-8 groups. The
// tiling depends only on n.
func stageGroups(n uint) []stageGroup {
	var gs []stageGroup
	s := uint(0)
	switch n % 3 {
	case 1:
		gs = append(gs, stageGroup{s: 0, radix: 2})
		s = 1
	case 2:
		gs = append(gs, stageGroup{s: 0, radix: 4})
		s = 2
	}
	for ; s < n; s += 3 {
		gs = append(gs, stageGroup{s: s, radix: 8})
	}
	return gs
}

// Offsets of the four stored factors inside the run of a pair of adjacent
// butterfly offsets (j, j+1), j even: the factor for j at the offset, the
// one for j+1 right behind it — one YMM load each.
const (
	twW1  = 0
	twW2a = 2
	twW3a = 4
	twW3b = 6
	twRun = 8 // complexes per pair of offsets
)

// runOf returns the run of table tw that serves offset j, starting at
// j's own lane: the tw* constants index it.
func runOf(tw []complex128, j uint64) []complex128 {
	return tw[j>>1*twRun+j&1:]
}

// packed builds the access-ordered table of the radix-8 group at stage s
// for offsets j in [lo, hi) of its h = 2^s. With W_m = exp(2 pi i / m),
// the butterfly at offset j multiplies by
//
//	w1  = W_2h^j                  (span-h stage)
//	w2a = W_4h^j,  w2b = W_4h^(j+h)          (span-2h stage)
//	w3a = W_8h^j,  w3b = W_8h^(j+h),
//	w3c = W_8h^(j+2h), w3d = W_8h^(j+3h)     (span-4h stage)
//
// of which w2b = i·w2a, w3c = i·w3a and w3d = i·w3b exactly, so only w1,
// w2a, w3a, w3b are stored; the inverse transform uses their conjugates.
// Run j/2 of the table holds them for offsets j and j+1, interleaved as
// the tw* constants say, so butterflies at consecutive offsets read
// consecutive memory. Every entry is one exact Sincos of
// 2 pi k / 8h — what cmplx.Exp would return for the same angle.
func packed(tw []complex128, s uint, lo, hi uint64) {
	h := uint64(1) << s
	unit := 2 * math.Pi / float64(8*h)
	root := func(k uint64) complex128 {
		sin, cos := math.Sincos(unit * float64(k))
		return complex(cos, sin)
	}
	for j := lo; j < hi; j++ {
		run := runOf(tw, j)
		run[twW1] = root(4 * j)
		run[twW2a] = root(2 * j)
		run[twW3a] = root(j)
		run[twW3b] = root(j + h)
	}
}

// tableLen is the length of the radix-8 table at stage s: one run per
// pair of offsets, and one run for the single offset of s = 0.
func tableLen(s uint) uint64 {
	return max(uint64(1)<<s/2, 1) * twRun
}

// build fills the plan's twiddle tables on first use, on the given number
// of workers. Each worker owns a contiguous range of offsets and every
// entry is computed independently, so the values do not depend on the
// worker count.
func (p *Plan) build(workers int) {
	p.once.Do(func() {
		for i := range p.groups {
			g := &p.groups[i]
			if g.radix != 8 {
				continue
			}
			g.tw = make([]complex128, tableLen(g.s))
			parallelFor(workers, uint64(1)<<g.s, func(lo, hi uint64) {
				packed(g.tw, g.s, lo, hi)
			})
		}
	})
}
