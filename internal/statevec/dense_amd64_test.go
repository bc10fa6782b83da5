package statevec

import "testing"

// TestDenseAsmWorkIsWholeQuads holds denseAsmWork to what its comment and
// denseChunkAsm's hand-over rely on: at every width one assembly call's
// share of a chunk is a positive multiple of 4 groups, so the ZMM body is
// never handed a remainder in the middle of a chunk.
func TestDenseAsmWorkIsWholeQuads(t *testing.T) {
	for w := uint(2); w <= MaxMatrixNQubits; w++ {
		if groups := uint64(denseAsmWork) >> (2 * w); groups == 0 || groups%4 != 0 {
			t.Errorf("w=%d: %d groups per assembly call, want a positive multiple of 4", w, groups)
		}
	}
}
