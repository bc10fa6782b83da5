//go:build !amd64

package statevec

func denseChunkAsm(amp, m []complex128, lay *blockLayout, start, end uint64) {
	panic("statevec: no assembly body for the dense block sweep on this architecture")
}

func factorChunkAsm(amp []complex128, npasses int, sc *factorScratch, lay *blockLayout, start, end uint64) {
	panic("statevec: no assembly body for the factored block sweep on this architecture")
}
