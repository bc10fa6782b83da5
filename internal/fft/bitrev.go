package fft

import (
	"fmt"

	"repro/internal/bitops"
	"repro/internal/par"
)

// tileLog is log2 of the tile side of the blocked bit reversal: tiles of
// 2^tileLog x 2^tileLog amplitudes, two of which (2 x 16 KiB) stay
// L1-resident while rows of 2^tileLog amplitudes (512 bytes, eight cache
// lines) are the unit in which memory is touched.
const tileLog = 5

const tileSide = 1 << tileLog

// tile is the stack buffer one tile is staged in.
type tile [tileSide * tileSide]complex128

// Reverse reverses the low w index bits of amps in place: within every
// contiguous fibre of 2^w amplitudes, offset k and offset rev(k) trade
// places. It is the reordering pass of a Natural transform on its own —
// what turns a ReversedOut result into natural order — run over the whole
// vector on the given number of workers, or fibre by fibre with the
// fibres shared out over them. len(amps) must be a multiple of 2^w.
func Reverse(amps []complex128, w uint, workers int) {
	size := uint64(1) << w
	total := uint64(len(amps))
	if total < size || total%size != 0 {
		panic(fmt.Sprintf("fft: reversal of %d-bit fibres does not tile %d amplitudes", w, total))
	}
	workers = effective(total, workers)
	if total == size {
		bitReverse(amps, w, workers)
		return
	}
	outer := total >> w
	if workers == 1 {
		reverseFibres(amps, w, 0, outer)
		return
	}
	k := min(uint64(workers), outer)
	par.For(int(k), func(i int) { reverseFibres(amps, w, uint64(i)*outer/k, uint64(i+1)*outer/k) })
}

// reverseFibres reverses fibres [lo, hi) of 2^w amplitudes on the calling
// goroutine.
//
//qemu:hotpath
func reverseFibres(amps []complex128, w uint, lo, hi uint64) {
	for o := lo; o < hi; o++ {
		bitReverse(amps[o<<w:(o+1)<<w], w, 1)
	}
}

// bitReverse permutes data, of length 2^n, into bit-reversed order in
// place, on the given number of workers.
//
// Split an index into a|b|c with a and c of tileLog bits and b the middle
// n-2·tileLog: its reversal is rev(c)|rev(b)|rev(a). For a fixed b the
// amplitudes (a, b, c) form a tile — row a is a contiguous run, rows lie
// 2^(n-tileLog) apart — and the reversal sends it, transposed and with
// both coordinates reversed, onto the tile of rev(b). So tiles are
// exchanged in pairs: each is read into a buffer, permuted on the way, and
// written row by row over the other. The scattered accesses a naive
// reversal makes to memory all land in the two buffers; and where the
// naive loop's power-of-two row stride maps a tile's rows onto one cache
// set, a row here is dead as soon as it has been copied. A vector smaller
// than one tile is swapped element by element.
//
//qemu:hotpath
func bitReverse(data []complex128, n uint, workers int) {
	if n < 2*tileLog {
		for i := range data {
			if j := bitops.ReverseBits(uint64(i), n); j > uint64(i) {
				data[i], data[j] = data[j], data[i]
			}
		}
		return
	}
	tiles := uint64(1) << (n - 2*tileLog)
	if workers <= 1 {
		reverseTiles(data, n, 0, tiles, 1)
		return
	}
	// Of a contiguous range of b, the share with b <= rev(b) — the ones
	// that do the work of their pair — falls from 7/8 in the first quarter
	// to 1/8 in the last. Dealing b round-robin gives every worker the
	// same mix.
	par.For(workers, func(k int) { reverseTiles(data, n, uint64(k), tiles, uint64(workers)) })
}

// reverseTiles exchanges tile b with tile rev(b) for b = from, from+step,
// ... below to, skipping pairs whose smaller member is not b.
func reverseTiles(data []complex128, n uint, from, to, step uint64) {
	// rev[x] is the tileLog-bit reversal of x, as a row offset into a tile.
	var rev [tileSide]uint16
	for i := range rev {
		rev[i] = uint16(bitops.ReverseBits(uint64(i), tileLog)) << tileLog
	}
	var bufA, bufB tile
	for b := from; b < to; b += step {
		rb := bitops.ReverseBits(b, n-2*tileLog)
		if rb < b {
			continue
		}
		loadTile(&bufA, data, n, b, &rev)
		if rb != b {
			loadTile(&bufB, data, n, rb, &rev)
			storeTile(data, &bufB, n, b)
		}
		storeTile(data, &bufA, n, rb)
	}
}

// loadTile reads tile b into buf with both coordinates reversed and
// exchanged: amplitude (a, b, c) lands at buf[rev(c)][rev(a)], the row and
// column it takes in its destination tile. It takes one cache line (four
// amplitudes) of every row before the next line of any: the rows are far
// apart and each one's first touch is a miss, and this order has all of
// them in flight at once where row-by-row waits for each in turn.
func loadTile(buf *tile, data []complex128, n uint, b uint64, rev *[tileSide]uint16) {
	const mask = uint64(len(buf) - 1)
	for c := uint64(0); c < tileSide; c += 4 {
		r := (*[4]uint16)(rev[c:])
		r0, r1, r2, r3 := uint64(r[0]), uint64(r[1]), uint64(r[2]), uint64(r[3])
		for a := uint64(0); a < tileSide; a++ {
			line := (*[4]complex128)(data[a<<(n-tileLog)|b<<tileLog|c:])
			ra := uint64(rev[a] >> tileLog)
			buf[(r0|ra)&mask] = line[0]
			buf[(r1|ra)&mask] = line[1]
			buf[(r2|ra)&mask] = line[2]
			buf[(r3|ra)&mask] = line[3]
		}
	}
}

// storeTile writes buf over tile b, row by row.
func storeTile(data []complex128, buf *tile, n uint, b uint64) {
	for a := uint64(0); a < tileSide; a++ {
		copy(data[a<<(n-tileLog)|b<<tileLog:][:tileSide], buf[a<<tileLog:][:tileSide])
	}
}
