package fft

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/rng"
	"repro/internal/statevec"
)

// withBody runs f with the radix-8 butterflies forced onto the pure-Go
// body (asm=false) or left on the host's choice (asm=true), restoring the
// selection afterwards.
func withBody(asm bool, f func()) {
	saved := useButterflyAsm
	useButterflyAsm = saved && asm
	defer func() { useButterflyAsm = saved }()
	f()
}

// BenchmarkFFTStages is the table CHANGES.md quotes and where
// perfmodel.Active().FFTNs comes from: at n = 18, 19 and 20 — a radix-8,
// radix-2 and radix-4 head — on one and two workers and through both
// bodies, ns per amplitude of every pass of the network taken alone (each
// group as a full pass, DIT and DIF), of the blocked pass that runs the
// small-span groups together, of the reordering pass, of the whole
// natural-order and ReversedOut transforms, and of a transform and its
// inverse in natural order against the reordered pair (ReversedOut, then
// ReversedIn) — beside an ApplyHadamard sweep of a state of the same size,
// the bandwidth yardstick.
//
//	go test -run xxx -bench BenchmarkFFTStages ./internal/fft/
func BenchmarkFFTStages(b *testing.B) {
	for _, n := range []uint{18, 19, 20} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchStages(b, n) })
	}
}

func benchStages(b *testing.B, n uint) {
	p, err := NewPlan(1 << n)
	if err != nil {
		b.Fatal(err)
	}
	st := statevec.NewRandom(n, rng.New(uint64(n)))
	data := st.Amplitudes()
	amps := float64(len(data))
	report := func(b *testing.B, f func()) {
		f()
		b.ResetTimer()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			f()
		}
		b.ReportMetric(float64(time.Since(start).Nanoseconds())/float64(b.N)/amps, "ns/amp")
	}
	inner := p.blocked()
	for _, workers := range []int{1, 2} {
		st.SetParallelism(workers)
		b.Run(fmt.Sprintf("hadamard/workers=%d", workers), func(b *testing.B) {
			report(b, func() { st.ApplyHadamard(n - 1) })
		})
		b.Run(fmt.Sprintf("bitreverse/workers=%d", workers), func(b *testing.B) {
			report(b, func() { bitReverse(data, n, workers) })
		})
		for _, body := range []struct {
			name string
			asm  bool
		}{{"go", false}, {"asm", true}} {
			if body.asm && !useButterflyAsm {
				continue
			}
			withBody(body.asm, func() {
				for _, dif := range []bool{false, true} {
					dir := "dit"
					if dif {
						dir = "dif"
					}
					ps := pass{data: data, dif: dif, scale: 1}
					for i, g := range p.groups {
						b.Run(fmt.Sprintf("%s/%s/s=%d/radix=%d/workers=%d", body.name, dir, g.s, g.radix, workers), func(b *testing.B) {
							ps.gs = p.groups[i : i+1]
							report(b, func() { ps.run(workers) })
						})
					}
					b.Run(fmt.Sprintf("%s/%s/blocked-s<%d/workers=%d", body.name, dir, p.groups[inner].s, workers), func(b *testing.B) {
						ps.gs = p.groups[:inner]
						report(b, func() { ps.run(workers) })
					})
				}
				b.Run(fmt.Sprintf("%s/unitary/workers=%d", body.name, workers), func(b *testing.B) {
					report(b, func() { p.Transform(data, false, Natural, workers) })
				})
				b.Run(fmt.Sprintf("%s/reversed-out/workers=%d", body.name, workers), func(b *testing.B) {
					report(b, func() { p.Transform(data, false, ReversedOut, workers) })
				})
				// A transform and its inverse: in natural order on both
				// sides, and as the reordered pair a caller that tracks
				// the order runs (two networks, no reordering pass).
				b.Run(fmt.Sprintf("%s/pair-natural/workers=%d", body.name, workers), func(b *testing.B) {
					report(b, func() {
						p.Transform(data, false, Natural, workers)
						p.Transform(data, true, Natural, workers)
					})
				})
				b.Run(fmt.Sprintf("%s/pair-reordered/workers=%d", body.name, workers), func(b *testing.B) {
					report(b, func() {
						p.Transform(data, false, ReversedOut, workers)
						p.Transform(data, true, ReversedIn, workers)
					})
				})
			})
		}
	}
}
