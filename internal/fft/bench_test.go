package fft

import (
	"fmt"
	"testing"
	"time"
	_ "unsafe" // go:linkname

	"repro/internal/cpufeat"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/statevec"
)

// activeBody is the kernel body the butterflies and heads run, cpufeat's
// one switch, reached by name because nothing exported moves it.
//
//go:linkname activeBody repro/internal/cpufeat.active
var activeBody cpufeat.Body

// withBody runs f with the butterflies on the given body, restoring the
// selection afterwards. It is how tests and benchmarks reach the bodies
// the host would not pick; the body must be one of availableBodies.
func withBody(body cpufeat.Body, f func()) {
	if body > hostBody {
		panic("fft: this host cannot run the " + body.String() + " body")
	}
	saved := activeBody
	activeBody = body
	defer func() { activeBody = saved }()
	f()
}

// hostBody is the selection made at init, before any test moved it.
var hostBody = cpufeat.Active()

// availableBodies lists the bodies this host runs, the host's own first.
func availableBodies() []cpufeat.Body {
	var bodies []cpufeat.Body
	for b := int(hostBody); b >= 0; b-- {
		bodies = append(bodies, cpufeat.Body(b))
	}
	return bodies
}

// BenchmarkFFTStages is the table CHANGES.md quotes and where
// perfmodel.Active().FFTNs comes from: at n = 18, 19 and 20 — a radix-8,
// radix-2 and radix-4 head — on one and two workers, and at n = 12, in
// cache and below the parallel threshold (the body's instruction floor),
// on one; and through every
// body this host runs (go, asm = AVX2, zmm = AVX-512), ns per amplitude
// of every pass of the network taken alone (each group as a full pass,
// DIT and DIF), of the blocked pass that runs the small-span groups
// together, of the reordering pass, of the whole natural-order and
// ReversedOut transforms, and of a transform and its inverse in natural
// order against the reordered pair (ReversedOut, then ReversedIn) —
// beside two yardsticks on the same workers: an ApplyHadamard sweep of a
// state of the same size and a copy of the vector into a buffer of its
// size, the floor of one pass.
//
//	go test -run xxx -bench BenchmarkFFTStages ./internal/fft/
func BenchmarkFFTStages(b *testing.B) {
	for _, n := range []uint{12, 18, 19, 20} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchStages(b, n) })
	}
}

// benchBodyNames are the bodies' names in BenchmarkFFTStages' rows.
var benchBodyNames = [...]string{cpufeat.Go: "go", cpufeat.AVX2: "asm", cpufeat.AVX512: "zmm"}

func benchStages(b *testing.B, n uint) {
	p, err := NewPlan(1 << n)
	if err != nil {
		b.Fatal(err)
	}
	st := statevec.NewRandom(n, rng.New(uint64(n)))
	data := st.Amplitudes()
	buf := make([]complex128, len(data))
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
		if workers > effective(uint64(len(data)), workers) {
			continue
		}
		st.SetParallelism(workers)
		b.Run(fmt.Sprintf("hadamard/workers=%d", workers), func(b *testing.B) {
			report(b, func() { st.ApplyHadamard(n - 1) })
		})
		b.Run(fmt.Sprintf("copy/workers=%d", workers), func(b *testing.B) {
			w := uint64(workers)
			report(b, func() {
				par.For(workers, func(k int) {
					lo, hi := uint64(k)*uint64(len(data))/w, uint64(k+1)*uint64(len(data))/w
					copy(buf[lo:hi], data[lo:hi])
				})
			})
		})
		b.Run(fmt.Sprintf("bitreverse/workers=%d", workers), func(b *testing.B) {
			report(b, func() { bitReverse(data, n, workers) })
		})
		for _, body := range availableBodies() {
			name := benchBodyNames[body]
			withBody(body, func() {
				for _, dif := range []bool{false, true} {
					dir := "dit"
					if dif {
						dir = "dif"
					}
					ps := pass{data: data, dif: dif, scale: 1}
					for i, g := range p.groups {
						b.Run(fmt.Sprintf("%s/%s/s=%d/radix=%d/workers=%d", name, dir, g.s, g.radix, workers), func(b *testing.B) {
							ps.gs = p.groups[i : i+1]
							report(b, func() { ps.run(workers) })
						})
					}
					b.Run(fmt.Sprintf("%s/%s/blocked-s<%d/workers=%d", name, dir, p.groups[inner].s, workers), func(b *testing.B) {
						ps.gs = p.groups[:inner]
						report(b, func() { ps.run(workers) })
					})
				}
				b.Run(fmt.Sprintf("%s/unitary/workers=%d", name, workers), func(b *testing.B) {
					report(b, func() { p.Transform(data, false, Natural, workers) })
				})
				b.Run(fmt.Sprintf("%s/reversed-out/workers=%d", name, workers), func(b *testing.B) {
					report(b, func() { p.Transform(data, false, ReversedOut, workers) })
				})
				// A transform and its inverse: in natural order on both
				// sides, and as the reordered pair a caller that tracks
				// the order runs (two networks, no reordering pass).
				b.Run(fmt.Sprintf("%s/pair-natural/workers=%d", name, workers), func(b *testing.B) {
					report(b, func() {
						p.Transform(data, false, Natural, workers)
						p.Transform(data, true, Natural, workers)
					})
				})
				b.Run(fmt.Sprintf("%s/pair-reordered/workers=%d", name, workers), func(b *testing.B) {
					report(b, func() {
						p.Transform(data, false, ReversedOut, workers)
						p.Transform(data, true, ReversedIn, workers)
					})
				})
			})
		}
	}
}
