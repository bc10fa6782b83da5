//go:build !amd64

package statevec

func diagChunkAsm(amp, d []complex128, lay *blockLayout, start, end uint64) uint64 {
	panic("statevec: no assembly body for the diagonal block sweep on this architecture")
}
