package statevec

import (
	"fmt"
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/cpufeat"
	"repro/internal/rng"
)

// randomDiag returns 2^w diagonal entries: random complex numbers, with
// an exact 1, a -1 and an entry carrying negative zeros among them, so the
// signs of zero products and sums are compared too.
func randomDiag(src *rng.Source, w uint) []complex128 {
	d := make([]complex128, 1<<w)
	for i := range d {
		d[i] = src.Complex()
	}
	d[0] = 1
	if len(d) > 2 {
		d[1] = -1
		d[2] = complex(math.Copysign(0, -1), src.Float64())
	}
	return d
}

// TestDiagBodiesAgree is the property test of the diagonal block sweep:
// over every width w = 1..8, every register size from a single group up,
// serial and pooled, the layouts of qubitOrders plus blocks holding qubit 0
// alone, qubit 1 alone, both and neither (lowLayouts), each body agrees bit
// for bit with every narrower one the host runs — pure Go included, since
// every body does Go's complex multiply — and with the same phases read
// off each basis state to 1e-12. Its "chunks" sub-test drives the chunk function over ranges the
// planner never produces, so the hand-over of a chunk's last groups to the
// pure-Go body and starts off a quad are covered.
func TestDiagBodiesAgree(t *testing.T) {
	eachDenseBody(t, func(t *testing.T, body cpufeat.Body) {
		src := rng.New(1973)
		got, want := New(1), New(1)
		check := func(init *State, qubits []uint, d []complex128, workers int) {
			t.Helper()
			what := fmt.Sprintf("n=%d qubits=%v workers=%d", init.NumQubits(), qubits, workers)
			if got.NumQubits() != init.NumQubits() {
				got, want = init.Clone(), init.Clone()
			}
			got.SetParallelism(workers)
			want.SetParallelism(workers)
			got.CopyFrom(init)
			withDenseBody(body, func() { got.ApplyDiagN(d, qubits) })
			for oracle := body; oracle > cpufeat.Go; {
				oracle--
				want.CopyFrom(init)
				withDenseBody(oracle, func() { want.ApplyDiagN(d, qubits) })
				if i, ok := sameBits(got, want); !ok {
					t.Fatalf("%s: %s and %s differ at amplitude %d: %v vs %v", what, body, oracle, i, got.amp[i], want.amp[i])
				}
			}
			// The same diagonal as phases on basis states: amplitude i times
			// d[x(i)], x read off the block's qubits.
			for i, a := range init.amp {
				x := 0
				for j, q := range qubits {
					x |= int(i>>q&1) << j
				}
				if diff := cmplx.Abs(got.amp[i] - a*d[x]); diff > 1e-12 {
					t.Fatalf("%s: amplitude %d is %v, want %v", what, i, got.amp[i], a*d[x])
				}
			}
		}
		cases := func(n, w uint, workers []int) {
			init := NewRandom(n, src)
			for _, qubits := range lowLayouts(qubitOrders(src, n, w), n, w) {
				if !fits(qubits, n, w) {
					continue // a low layout that does not fit this register
				}
				d := randomDiag(src, w)
				for _, k := range workers {
					check(init, qubits, d, k)
				}
			}
		}
		for w := uint(1); w <= MaxMatrixNQubits; w++ {
			for n := w; n <= w+5; n++ {
				cases(n, w, []int{1})
			}
		}
		// Registers with enough groups to reach the worker pool, and more
		// groups per chunk than one assembly call takes.
		for _, big := range []struct{ n, w uint }{{13, 1}, {14, 2}, {16, 4}, {19, 1}, {20, 2}} {
			cases(big.n, big.w, []int{1, 2, 3})
		}

		t.Run("chunks", func(t *testing.T) {
			for w := uint(1); w <= MaxMatrixNQubits; w++ {
				n := w + 5 // 32 groups
				for _, qubits := range lowLayouts(qubitOrders(src, n, w), n, w) {
					if !fits(qubits, n, w) {
						continue
					}
					d := randomDiag(src, w)
					for _, r := range chunkRanges {
						init := NewRandom(n, src)
						got, want := init.Clone(), init.Clone()
						withDenseBody(body, func() { diagChunkN(got.amp, d, got.layoutFor(qubits), r[0], r[1]) })
						diagBlockChunk(want.amp, d, want.layoutFor(qubits), r[0], r[1])
						if i, ok := sameBits(got, want); !ok {
							t.Fatalf("w=%d qubits=%v groups [%d,%d): %s differs from the pure-Go body at amplitude %d", w, qubits, r[0], r[1], body, i)
						}
					}
				}
			}
		})
	})
	s := New(6)
	lay := s.layoutFor([]uint{0, 3})
	for _, r := range [][2]uint64{{3, 2}, {0, 17}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("diagChunkN over groups [%d,%d) of 16 did not panic", r[0], r[1])
				}
			}()
			diagChunkN(s.amp, make([]complex128, 4), lay, r[0], r[1])
		}()
	}
}

// fits reports whether a qubit list is a width-w block of an n-qubit
// register: w distinct qubits, all in range.
func fits(qubits []uint, n, w uint) bool {
	var seen uint64
	for _, q := range qubits {
		if q >= n || seen&(1<<q) != 0 {
			return false
		}
		seen |= 1 << q
	}
	return uint(len(qubits)) == w
}
