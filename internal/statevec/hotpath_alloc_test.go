package statevec

import (
	"testing"

	"repro/internal/gates"
)

// TestHotpathKernelsDoNotAllocate pins the zero-steady-state-allocation
// contract the //qemu:hotpath annotations document and the hotpathalloc
// analyzer enforces syntactically: once a State exists, the annotated
// kernels run without touching the heap. The state is kept below
// parallelThreshold so the serial path is measured (the parallel path's
// closures are pinned below).
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
	// A table wider than MaxMatrixNQubits takes ApplyDiagTable's run path.
	wide := NewZero(10)
	wide.SetParallelism(1)
	wideOnes := make([]complex128, 1<<9)
	for i := range wideOnes {
		wideOnes[i] = 1
	}
	// A product of a cluster inside the rows and one across them, filled
	// in two shares.
	product := NewProduct(8, 8, [][]uint{{0, 1}, {2, 7}}, [][]complex128{{0.5, 0.5, 0.5, 0.5}, {0.5, 0.5, 0.5, 0.5}})
	cases := []struct {
		name string
		run  func()
	}{
		{"ApplyControlledMatrix2/no controls", func() { s.ApplyControlledMatrix2(gates.MatH, 1, nil) }},
		{"ApplyControlledMatrix2", func() { s.ApplyControlledMatrix2(gates.MatH, 1, controls) }},
		{"ApplyControlledX/no controls", func() { s.ApplyControlledX(1, nil) }},
		{"ApplyControlledX", func() { s.ApplyControlledX(1, controls) }},
		{"ApplyControlledDiag/no controls", func() { s.ApplyControlledDiag(1, -1, 1, nil) }},
		{"ApplyControlledDiag", func() { s.ApplyControlledDiag(1, -1, 1, controls) }},
		{"ApplyHadamard", func() { s.ApplyHadamard(1) }},
		{"ApplyMatrixN/w=2", func() { s.ApplyMatrixN(blocks[2], qubits[:2]) }},
		{"ApplyMatrixN/w=3", func() { s.ApplyMatrixN(blocks[3], qubits[:3]) }},
		{"ApplyMatrixN/w=4", func() { s.ApplyMatrixN(blocks[4], qubits[:4]) }},
		{"ApplyFactored/lanes", func() { s.ApplyFactored(factored, qubits) }},
		{"ApplyFactored/runs", func() { s.ApplyFactored(factored, high) }},
		{"ApplyDiagN", func() { s.ApplyDiagN(ones, qubits[:3]) }},
		{"ApplyDiagTable", func() { s.ApplyDiagTable(ones, []uint{0, 3, 4}) }},
		{"ApplyDiagTable/runs", func() { wide.ApplyDiagTable(wideOnes, []uint{0, 1, 2, 4, 5, 6, 7, 8, 9}) }},
		{"FillProduct", func() { s.FillProduct(product, 0, 0, 2); s.FillProduct(product, 0, 1, 2) }},
		{"ApplyFieldAdd/scatter", func() {
			s.ApplyFieldAdd(FieldAdd{APos: 0, BPos: 3, Width: 3, CarryIn: 6, CarryOut: 7, HasCarryOut: true})
		}},
		{"ApplyFieldAdd/tiled", func() { s.ApplyFieldAdd(FieldAdd{APos: 0, BPos: 3, Width: 3, CarryIn: 6}) }},
		{"ApplyFieldAddDiag/tiled", func() {
			s.ApplyFieldAddDiag(FieldAdd{APos: 3, BPos: 0, Width: 3, CarryIn: 6}, ones, []uint{2, 4, 7}, true)
		}},
	}
	// The chunk functions of the controlled and diagonal kernels on a state
	// that fans out, each over the chunks of its plan: what every worker
	// runs allocates nothing (the dispatch's closures are pinned below).
	p := NewZero(15)
	p.SetParallelism(2)
	cmask := uint64(1)<<3 | 1<<4
	qmask := cmask | 1<<1
	lay := p.layoutFor(qubits[:3])
	eachChunk := func(groups uint64, f func(lo, hi uint64)) func() {
		ck := p.chunksFor(groups)
		if ck.n < 2 {
			t.Fatalf("%d groups at two workers make %d chunk(s), want a pooled plan", groups, ck.n)
		}
		return func() {
			for i := 0; i < ck.n; i++ {
				f(ck.bounds(i))
			}
		}
	}
	groups := p.Dim() >> 3
	cases = append(cases, []struct {
		name string
		run  func()
	}{
		{"pooled/ctrlXChunk", eachChunk(groups, func(lo, hi uint64) { ctrlXChunk(p.amp, cmask, qmask, lo, hi) })},
		{"pooled/ctrlDiagChunk", eachChunk(groups, func(lo, hi uint64) { ctrlDiagChunk(p.amp, 1, -1, cmask, qmask, lo, hi) })},
		{"pooled/ctrlMatrix2Chunk", eachChunk(groups, func(lo, hi uint64) { ctrlMatrix2Chunk(p.amp, gates.MatH, cmask, qmask, lo, hi) })},
		{"pooled/diagChunkN", eachChunk(groups, func(lo, hi uint64) { diagChunkN(p.amp, ones, lay, lo, hi) })},
		// The tiled field add hands par.For a chunk function bound once, so
		// its pooled path allocates nothing at all: emulate-mix's adder,
		// packed, and its mirror, in whole-row rotations.
		{"pooled/ApplyFieldAdd", func() { p.ApplyFieldAdd(FieldAdd{APos: 0, BPos: 7, Width: 7, CarryIn: 14}) }},
		{"pooled/ApplyFieldAddDiag", func() {
			p.ApplyFieldAddDiag(FieldAdd{APos: 7, BPos: 0, Width: 7, CarryIn: 14}, ones, []uint{2, 9, 13}, false)
		}},
	}...)
	for _, c := range cases {
		if n := testing.AllocsPerRun(50, c.run); n != 0 {
			t.Errorf("%s: %v allocs per run, want 0", c.name, n)
		}
	}
}

// TestParallelKernelsAllocateOnlyTheirClosures pins the fan-out's cost on
// the parallel path: a kernel allocates its closures (the kernel's and
// parallelRange's; parallelReduce adds the partials slice) and par.For
// nothing per chunk, so two and four workers read the same count.
func TestParallelKernelsAllocateOnlyTheirClosures(t *testing.T) {
	p := NewZero(15)
	for _, c := range []struct {
		name string
		max  float64
		run  func()
	}{
		{"ApplyControlledMatrix2/no controls", 2, func() { p.ApplyControlledMatrix2(gates.MatH, 1, nil) }},
		{"Norm", 3, func() { _ = p.Norm() }},
	} {
		var got [2]float64
		for i, w := range []int{2, 4} {
			p.SetParallelism(w)
			c.run() // warm par's workers and job pool
			got[i] = testing.AllocsPerRun(100, c.run)
		}
		if got[0] != got[1] || got[0] > c.max {
			t.Errorf("%s: %v allocs per call at two workers and %v at four, want the same and at most %v", c.name, got[0], got[1], c.max)
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
		s.ApplyControlledX(uint(i)%16, nil)
	}
}
