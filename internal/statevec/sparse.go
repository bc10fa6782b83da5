package statevec

import (
	"repro/internal/bitops"
	"repro/internal/gates"
)

// csr is a compressed-sparse-row complex matrix, the representation the
// LIQUi|>-class baseline expands each gate into.
type csr struct {
	N      uint64
	RowPtr []uint64
	ColIdx []uint64
	Values []complex128
}

// gateToCSR expands a (controlled) single-qubit gate into its full
// 2^n x 2^n sparse matrix. Every row holds one or two non-zeros.
func gateToCSR(g gates.Gate, n uint) *csr {
	dim := uint64(1) << n
	cmask := bitops.ControlMask(g.Controls)
	tbit := uint64(1) << g.Target
	m := &csr{
		N:      dim,
		RowPtr: make([]uint64, dim+1),
		ColIdx: make([]uint64, 0, 2*dim),
		Values: make([]complex128, 0, 2*dim),
	}
	for row := uint64(0); row < dim; row++ {
		if row&cmask != cmask {
			// Control fails: identity row.
			m.ColIdx = append(m.ColIdx, row)
			m.Values = append(m.Values, 1)
		} else if row&tbit == 0 {
			m.ColIdx = append(m.ColIdx, row, row|tbit)
			m.Values = append(m.Values, g.Matrix[0], g.Matrix[1])
		} else {
			m.ColIdx = append(m.ColIdx, row&^tbit, row)
			m.Values = append(m.Values, g.Matrix[2], g.Matrix[3])
		}
		m.RowPtr[row+1] = uint64(len(m.ColIdx))
	}
	return m
}

// matVec computes y = M*x with the generic CSR kernel (no knowledge of the
// gate structure survives the expansion — that is the point).
func (m *csr) matVec(y, x []complex128) {
	for row := uint64(0); row < m.N; row++ {
		var acc complex128
		for p := m.RowPtr[row]; p < m.RowPtr[row+1]; p++ {
			acc += m.Values[p] * x[m.ColIdx[p]]
		}
		y[row] = acc
	}
}

// ApplyGateSparse applies g the way the LIQUi|>-class baseline does: the
// gate is expanded to an explicit sparse 2^n x 2^n matrix and applied by a
// generic sparse matrix-vector product into the State's scratch buffer —
// the "series of sparse matrix vector multiplications" of the paper's
// Section 1, paying matrix construction, index-chasing loads and an
// out-of-place vector per gate.
func (s *State) ApplyGateSparse(g gates.Gate) {
	s.checkTargetControls(g.Target, g.Controls)
	out := s.scratchBuf()
	gateToCSR(g, s.n).matVec(out, s.amp)
	copy(s.amp, out)
}
