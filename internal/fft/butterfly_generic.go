//go:build !amd64

package fft

// useButterflyAsm is false off amd64: the pure-Go butterflies are the
// only body.
var useButterflyAsm = false

func butterfly8Asm(data, tw []complex128, s uint, lo, hi uint64, dif, inverse bool) {
	panic("fft: no assembly butterfly body on this architecture")
}
