package statevec

import (
	"math"
	"testing"

	"repro/internal/gates"
	"repro/internal/rng"
)

func TestGateToCSRStructure(t *testing.T) {
	// CSR of a CNOT: permutation matrix with one 1 per row.
	m := gateToCSR(gates.CNOT(0, 1), 2)
	if m.N != 4 {
		t.Fatalf("dim %d", m.N)
	}
	for row := uint64(0); row < 4; row++ {
		nnz := m.RowPtr[row+1] - m.RowPtr[row]
		if nnz != 1 && nnz != 2 {
			t.Fatalf("row %d has %d nnz", row, nnz)
		}
	}
	// Column sums of |entries|^2 must be 1 (unitary with unit columns).
	colSum := make([]float64, 4)
	for p := range m.Values {
		v := m.Values[p]
		colSum[m.ColIdx[p]] += real(v)*real(v) + imag(v)*imag(v)
	}
	for c, s := range colSum {
		if math.Abs(s-1) > 1e-12 {
			t.Errorf("column %d norm %v", c, s)
		}
	}
}

// TestApplyGateSparseMatchesApplyGate: the expanded-matrix kernel and the
// specialised kernels are the same map, controlled gates included.
func TestApplyGateSparseMatchesApplyGate(t *testing.T) {
	src := rng.New(31)
	for _, g := range []gates.Gate{
		gates.H(0), gates.Rx(3, 0.7), gates.T(2), gates.CNOT(4, 1),
		gates.CR(0, 4, 1.1), gates.Toffoli(1, 3, 2),
	} {
		want := NewRandom(5, src)
		got := want.Clone()
		want.ApplyGate(g)
		got.ApplyGateSparse(g)
		if d := got.MaxDiff(want); d > 1e-12 {
			t.Errorf("%s: sparse kernel differs by %g", g.Name, d)
		}
	}
}
