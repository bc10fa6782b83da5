package statevec

import (
	"testing"

	"repro/internal/gates"
)

// TestHotpathKernelsDoNotAllocate pins the zero-steady-state-allocation
// contract the //qemu:hotpath annotations document and the hotpathalloc
// analyzer enforces syntactically: once a State exists, the annotated
// kernels run without touching the heap. The state is kept below
// parallelThreshold so the serial path is measured (the parallel path
// amortises its worker pool separately).
func TestHotpathKernelsDoNotAllocate(t *testing.T) {
	s := NewZero(8)
	s.SetParallelism(1)
	controls := []uint{3, 4}
	// Identity blocks of widths 2..4 and the qubits they act on.
	var blocks [5][]complex128
	for w := 2; w <= 4; w++ {
		blocks[w] = make([]complex128, 1<<(2*w))
		for i := 0; i < 1<<w; i++ {
			blocks[w][i<<w|i] = 1
		}
	}
	qubits := []uint{6, 0, 3, 5}
	// The width-4 identity as two factors of two, over lists with and
	// without qubits 0 and 1: the lane gather, and the run path that reads
	// and writes the vector in place.
	factored := NewFactored(4, []Factor{{Bits: []uint{0, 2}, Matrix: blocks[2]}, {Bits: []uint{3, 1}, Matrix: blocks[2]}})
	high := []uint{7, 2, 5, 4}
	ones := []complex128{1, 1, 1, 1, 1, 1, 1, 1}
	cases := []struct {
		name string
		run  func()
	}{
		{"ApplyMatrix2", func() { s.ApplyMatrix2(gates.MatH, 1) }},
		{"ApplyControlledMatrix2", func() { s.ApplyControlledMatrix2(gates.MatH, 1, controls) }},
		{"ApplyX", func() { s.ApplyX(1) }},
		{"ApplyControlledX", func() { s.ApplyControlledX(1, controls) }},
		{"ApplyDiag", func() { s.ApplyDiag(1, -1, 1) }},
		{"ApplyControlledDiag", func() { s.ApplyControlledDiag(1, -1, 1, controls) }},
		{"ApplyHadamard", func() { s.ApplyHadamard(1) }},
		{"ApplyMatrixN/w=2", func() { s.ApplyMatrixN(blocks[2], qubits[:2]) }},
		{"ApplyMatrixN/w=3", func() { s.ApplyMatrixN(blocks[3], qubits[:3]) }},
		{"ApplyMatrixN/w=4", func() { s.ApplyMatrixN(blocks[4], qubits[:4]) }},
		{"ApplyFactored/lanes", func() { s.ApplyFactored(factored, qubits) }},
		{"ApplyFactored/runs", func() { s.ApplyFactored(factored, high) }},
		{"ApplyDiagN", func() { s.ApplyDiagN(ones, qubits[:3]) }},
		{"ApplyDiagTable", func() { s.ApplyDiagTable(ones, []uint{0, 3, 4}) }},
		{"ApplyFieldAdd", func() {
			s.ApplyFieldAdd(FieldAdd{APos: 0, BPos: 3, Width: 3, CarryIn: 6, CarryOut: 7, HasCarryOut: true})
		}},
	}
	for _, c := range cases {
		if n := testing.AllocsPerRun(50, c.run); n != 0 {
			t.Errorf("%s: %v allocs per run, want 0", c.name, n)
		}
	}
}

// BenchmarkHotpathApplyX is the -benchmem witness for the same
// contract on a vector large enough to be bandwidth-bound.
func BenchmarkHotpathApplyX(b *testing.B) {
	s := NewZero(16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ApplyX(uint(i) % 16)
	}
}
