package statevec

import (
	"fmt"
	"math/cmplx"
	"testing"
	"time"

	"repro/internal/gates"
	"repro/internal/rng"
)

// withDenseBody runs f with the dense block sweep forced onto the pure-Go
// body (asm=false) or left on the host's choice (asm=true), restoring the
// selection afterwards. It is how tests and benchmarks reach the fallback
// on a host that runs the assembly.
func withDenseBody(asm bool, f func()) {
	saved := useDenseAsm
	useDenseAsm = saved && asm
	defer func() { useDenseAsm = saved }()
	f()
}

// BenchmarkDenseBlock is where fuse.denseBlockCost comes from: one dense
// 2^w block sweep (and the diagonal sweep beside it) on a cache-resident
// (n=12) and an out-of-L2 (n=20) state, through both bodies, reported as
// ns per amplitude and in sweep units — the sweep's time divided by an
// ApplyMatrix2 sweep of the same state, the unit the planner prices in. Qubits are spread over the register like the planner's blocks.
//
//	go test -run xxx -bench BenchmarkDenseBlock -benchmem ./internal/statevec/
func BenchmarkDenseBlock(b *testing.B) {
	for _, n := range []uint{12, 20} {
		src := rng.New(uint64(n))
		st := NewRandom(n, src)
		amps := float64(st.Dim())
		for w := uint(2); w <= MaxMatrixNQubits; w++ {
			if n == 20 && w > 5 {
				continue // minutes of pure Go for widths no plan reaches
			}
			qubits := make([]uint, w)
			for j := range qubits {
				qubits[j] = 1 + uint(j)*(n-2)/(w-1)
			}
			// Norm-preserving inputs: a block that shrinks the state
			// walks it into the denormal range within one benchmark run.
			m := randomUnitary(src, w)
			d := make([]complex128, 1<<w)
			for i := range d {
				d[i] = cmplx.Rect(1, float64(i))
			}
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
				b.ReportMetric(ns/unit, "sweeps")
			}
			for _, body := range []struct {
				name string
				asm  bool
			}{{"asm", true}, {"go", false}} {
				if body.asm && !useDenseAsm {
					continue
				}
				b.Run(fmt.Sprintf("n=%d/w=%d/%s", n, w, body.name), func(b *testing.B) {
					withDenseBody(body.asm, func() { report(b, func() { st.ApplyMatrixN(m, qubits) }) })
				})
			}
			b.Run(fmt.Sprintf("n=%d/w=%d/diag", n, w), func(b *testing.B) {
				report(b, func() { st.ApplyDiagN(d, qubits) })
			})
		}
	}
}
