//go:build !amd64

package fft

func butterfly8Asm(data, tw []complex128, s uint, lo, hi uint64, dif, inverse bool) {
	panic("fft: no assembly butterfly body on this architecture")
}

func butterfly8AVX512(data, tw []complex128, s uint, lo, hi uint64, dif, inverse bool) {
	panic("fft: no assembly butterfly body on this architecture")
}

func headAsm(g *stageGroup, data []complex128, lo, hi uint64, dif, inverse bool, scale float64) {
	panic("fft: no assembly butterfly body on this architecture")
}
