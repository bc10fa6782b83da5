package fuse

import (
	"fmt"
	"testing"

	"repro/internal/circgen"
	"repro/internal/circuit"
	"repro/internal/gates"
	"repro/internal/revlib"
	"repro/internal/rng"
)

// materialiseRun is one of BenchmarkMaterialise's connected runs on the w
// qubits 0..w-1, of about 400 gates. "adder" is Ry layers around Cuccaro
// adders over every qubit (with a carry-out qubit at even w): the X, CX and
// CCX runs the n=8 adder circuits of the benchmark's compile-cold corpus
// plan at w=8. "brickwork" is circgen.Brickwork: Rx·Rz layers with CNOTs on
// alternating neighbour pairs.
func materialiseRun(shape string, w uint) []gates.Gate {
	src := rng.New(uint64(w))
	if shape == "brickwork" {
		return circgen.Brickwork(src, w, 400/int(2*w+w/2)+1).Gates
	}
	c := circuit.New(w)
	m := (w - 1) / 2
	a, b := revlib.Seq(0, m), revlib.Seq(m, m)
	for c.Len() < 400 {
		for q := uint(0); q < w; q++ {
			c.Append(gates.Ry(q, src.Float64()*3))
		}
		if w%2 == 0 {
			revlib.AdderWithCarryOut(c, a, b, 2*m, 2*m+1)
		} else {
			revlib.Adder(c, a, b, 2*m)
		}
	}
	return c.Gates
}

var materialised Block

// BenchmarkMaterialise times building one dense block's matrix from its
// run — what New pays per fused block of its final schedule, once in
// backend.Compile and again in backend.Decode — for the two run shapes of
// materialiseRun at w = 5..8.
func BenchmarkMaterialise(b *testing.B) {
	for _, shape := range []string{"adder", "brickwork"} {
		for w := uint(5); w <= MaxWidth; w++ {
			gs := materialiseRun(shape, w)
			run := itemsOf(gs)
			var support uint64
			for _, it := range run {
				support |= it.mask
			}
			if blk := materialise(denseKind, run, support, 0); blk.Matrix == nil || len(blk.Qubits) != int(w) {
				b.Fatalf("%s w=%d: the run is not one dense %d-qubit matrix", shape, w, w)
			}
			b.Run(fmt.Sprintf("%s/w=%d/gates=%d", shape, w, len(gs)), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					materialised = materialise(denseKind, run, support, 0)
				}
			})
		}
	}
}
