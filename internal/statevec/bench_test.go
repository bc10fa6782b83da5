package statevec

import (
	"fmt"
	"math/cmplx"
	"testing"
	"time"

	"repro/internal/gates"
	"repro/internal/rng"
)

// withDenseBody runs f with the dense block sweep on the given body,
// restoring the host's selection afterwards. It is how tests and
// benchmarks reach the bodies the host would not pick; the body must be
// one of availableBodies.
func withDenseBody(body denseBodyKind, f func()) {
	if body > hostBody {
		panic("statevec: this host cannot run the " + body.String() + " body")
	}
	saved := denseBody
	denseBody = body
	defer func() { denseBody = saved }()
	f()
}

// hostBody is the selection made at init, before any test moved it.
var hostBody = denseBody

// availableBodies lists the bodies this host runs, the host's own first.
func availableBodies() []denseBodyKind {
	var bodies []denseBodyKind
	for b := int(hostBody); b >= 0; b-- {
		bodies = append(bodies, denseBodyKind(b))
	}
	return bodies
}

// BenchmarkDenseBlock is where fuse.denseBlockCost comes from: one dense
// 2^w block sweep (the diagonal sweep beside it, and at w = 4, 5 and 6 the
// same width as a factored block of two- and three-qubit factors) on an L1/L2-resident
// state below the parallel threshold (n=12), an L2-resident one the pool
// splits (n=16) and an out-of-L2 one (n=20), through every body the host
// runs, reported as ns per amplitude, as ns per amplitude per worker — the
// former times the sweep's chunk count, the figure that is comparable
// between a serial row and a pooled one — and in sweep units: the sweep's
// time divided by an ApplyMatrix2 sweep of the same state, the unit the
// planner prices in. Qubits are spread over the register like the
// planner's blocks, from qubit 1 up (from=1, the rows the prices were read
// from) and, for the assembly bodies, from qubit 2 up (from=2): with
// qubits 0 and 1 outside the block the ZMM body moves one 64-byte run per
// gather instead of four lanes. On the build box (2 vCPUs that are
// hyperthreads of one core) the per-worker figure does not step up where
// the state leaves L2: for both assembly bodies n=20 reads at or below
// n=16 and within a third of n=12 (n=16, the shortest pooled sweep, reads
// highest), so the sweep is bound by instructions, not by the cache level
// the state sits in.
//
//	go test -run xxx -bench BenchmarkDenseBlock -benchmem ./internal/statevec/
func BenchmarkDenseBlock(b *testing.B) {
	for _, n := range []uint{12, 16, 20} {
		src := rng.New(uint64(n))
		st := NewRandom(n, src)
		amps := float64(st.Dim())
		for w := uint(2); w <= MaxMatrixNQubits; w++ {
			// Above n=12 the dense and diagonal rows stop at w=5: minutes of
			// pure Go for widths no plan reaches. The factored rows go on.
			dense := n == 12 || w <= 5
			// Norm-preserving inputs: a block that shrinks the state
			// walks it into the denormal range within one benchmark run.
			m := randomUnitary(src, w)
			d := make([]complex128, 1<<w)
			for i := range d {
				d[i] = cmplx.Rect(1, float64(i))
			}
			workers := float64(st.chunksFor(st.Dim() >> w).n)
			report := func(b *testing.B, f func()) {
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					f()
				}
				b.StopTimer()
				ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
				// The unit — a dense 2x2 sweep of the same state — is
				// timed right behind the measured loop, so a disturbed
				// host skews both sides of the ratio alike, and for
				// about 20 ms, so a small state is not timed at the
				// clock's resolution.
				reps := 8 + int(1e7/amps)
				t0 := time.Now()
				for i := 0; i < reps; i++ {
					st.ApplyMatrix2(gates.MatH, n/2)
				}
				unit := float64(time.Since(t0).Nanoseconds()) / float64(reps)
				b.ReportMetric(ns/amps, "ns/amp")
				b.ReportMetric(ns/amps*workers, "ns/amp/worker")
				b.ReportMetric(ns/unit, "sweeps")
			}
			// The factored rows: the same width as Kronecker factors on
			// neighbouring block bits, the shape a brickwork layer fuses to.
			var factored *Factored
			shape := map[uint]struct {
				name   string
				widths []uint
			}{4: {"f=2+2", []uint{2, 2}}, 5: {"f=2+3", []uint{2, 3}}, 6: {"f=2+2+2", []uint{2, 2, 2}}}[w]
			if shape.widths != nil {
				var factors []Factor
				bit := uint(0)
				for _, k := range shape.widths {
					f := Factor{Matrix: randomUnitary(src, k)}
					for ; uint(len(f.Bits)) < k; bit++ {
						f.Bits = append(f.Bits, bit)
					}
					factors = append(factors, f)
				}
				factored = NewFactored(w, factors)
			}
			for _, from := range []uint{1, 2} {
				qubits := make([]uint, w)
				for j := range qubits {
					qubits[j] = from + uint(j)*(n-1-from)/(w-1)
				}
				for _, body := range availableBodies() {
					if from == 2 && body == bodyGo {
						continue
					}
					if dense {
						b.Run(fmt.Sprintf("n=%d/w=%d/from=%d/%s", n, w, from, body), func(b *testing.B) {
							withDenseBody(body, func() { report(b, func() { st.ApplyMatrixN(m, qubits) }) })
						})
					}
					if factored != nil {
						b.Run(fmt.Sprintf("n=%d/w=%d/%s/from=%d/%s", n, w, shape.name, from, body), func(b *testing.B) {
							withDenseBody(body, func() { report(b, func() { st.ApplyFactored(factored, qubits) }) })
						})
					}
				}
				if from == 1 && dense {
					b.Run(fmt.Sprintf("n=%d/w=%d/from=%d/diag", n, w, from), func(b *testing.B) {
						report(b, func() { st.ApplyDiagN(d, qubits) })
					})
				}
			}
		}
	}
}
