package fft

import (
	"repro/internal/bitops"
)

// tileLog is log2 of the tile side of the blocked bit reversal: tiles of
// 2^tileLog x 2^tileLog amplitudes, two of which (2 x 16 KiB) stay
// L1-resident while rows of 2^tileLog amplitudes (512 bytes, eight cache
// lines) are the unit in which memory is touched.
const tileLog = 5

// tile is the stack buffer one tile is staged in.
type tile [1 << (2 * tileLog)]complex128

// bitReverse permutes data, of length 2^n, into bit-reversed order in
// place, on the given number of workers.
//
// Split an index into a|b|c with a and c of q = min(tileLog, n/2) bits and
// b the middle n-2q: its reversal is rev(c)|rev(b)|rev(a). For a fixed b
// the amplitudes (a, b, c) form a 2^q x 2^q tile — row a is a contiguous
// run, rows lie 2^(n-q) apart — and the reversal sends it, transposed and
// with both coordinates reversed, onto the tile of rev(b). So tiles are
// exchanged in pairs: each is read row by row into a buffer, permuted
// there, and written row by row over the other. The scattered accesses a
// naive reversal makes to memory all land in the two buffers; and where
// the naive loop's power-of-two row stride maps a tile's rows onto one
// cache set, a row here is dead as soon as it has been copied.
//
//qemu:hotpath
func bitReverse(data []complex128, n uint, workers int) {
	if n < 4 {
		for i := range data {
			if j := bitops.ReverseBits(uint64(i), n); j > uint64(i) {
				data[i], data[j] = data[j], data[i]
			}
		}
		return
	}
	q := min(tileLog, n/2)
	tiles := uint64(1) << (n - 2*q)
	if workers <= 1 {
		reverseTiles(data, n, q, 0, tiles, 1)
		return
	}
	// Of a contiguous range of b, the share with b <= rev(b) — the ones
	// that do the work of their pair — falls from 7/8 in the first quarter
	// to 1/8 in the last. Dealing b round-robin gives every worker the
	// same mix.
	w := uint64(workers)
	parallelFor(workers, w, func(k, _ uint64) {
		reverseTiles(data, n, q, k, tiles, w)
	})
}

// reverseTiles exchanges tile b with tile rev(b) for b = from, from+step,
// ... below to, skipping pairs whose smaller member is not b.
func reverseTiles(data []complex128, n, q uint, from, to, step uint64) {
	var rev [1 << tileLog]uint8
	for i := range rev {
		rev[i] = uint8(bitops.ReverseBits(uint64(i), q))
	}
	var bufA, bufB tile
	mid := n - 2*q
	for b := from; b < to; b += step {
		rb := bitops.ReverseBits(b, mid)
		if rb < b {
			continue
		}
		loadTile(&bufA, data, n, q, b, &rev)
		if rb != b {
			loadTile(&bufB, data, n, q, rb, &rev)
			storeTile(data, &bufB, n, q, b)
		}
		storeTile(data, &bufA, n, q, rb)
	}
}

// loadTile reads tile b into buf with both coordinates reversed and
// exchanged: amplitude (a, b, c) lands at buf[rev(c)][rev(a)], the row and
// column it takes in its destination tile.
func loadTile(buf *tile, data []complex128, n, q uint, b uint64, rev *[1 << tileLog]uint8) {
	side := uint64(1) << q
	var off [1 << tileLog]uint16
	for c := range off {
		off[c] = uint16(rev[c]) << q
	}
	const mask = uint64(len(buf) - 1)
	for c0 := uint64(0); c0 < side; c0 += 4 {
		o := (*[4]uint16)(off[c0:])
		o0, o1, o2, o3 := uint64(o[0]), uint64(o[1]), uint64(o[2]), uint64(o[3])
		for a := uint64(0); a < side; a++ {
			row := (*[4]complex128)(data[a<<(n-q)|b<<q|c0:])
			ra := uint64(rev[a])
			buf[(o0|ra)&mask] = row[0]
			buf[(o1|ra)&mask] = row[1]
			buf[(o2|ra)&mask] = row[2]
			buf[(o3|ra)&mask] = row[3]
		}
	}
}

// storeTile writes buf over tile b, row by row.
func storeTile(data []complex128, buf *tile, n, q uint, b uint64) {
	side := uint64(1) << q
	for a := uint64(0); a < side; a++ {
		copy(data[a<<(n-q)|b<<q:][:side], buf[a<<q:][:side])
	}
}
