package fft

import (
	"flag"
	"fmt"
	"math"
	"math/cmplx"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	_ "unsafe" // go:linkname

	"repro/internal/bitops"
	"repro/internal/cpufeat"
	"repro/internal/rng"
)

// ForwardSerial is Forward restricted to the calling goroutine.
func (p *Plan) ForwardSerial(data []complex128) { p.check(data); p.apply(data, false, Natural, 1, 1) }

// InverseSerial computes the unnormalised transform with the -i sign
// convention, in place, on the calling goroutine: InverseSerial(Forward(x))
// == N*x.
func (p *Plan) InverseSerial(data []complex128) { p.check(data); p.apply(data, true, Natural, 1, 1) }

// TestMain runs the suite once per body this host runs, its own first
// and the pure-Go one, which every other host uses, last. Benchmark, fuzz
// and profile invocations run once, on the host's body.
func TestMain(m *testing.M) {
	flag.Parse()
	bodies := availableBodies()
	if !plainTestRun() {
		bodies = bodies[:1]
	}
	code := 0
	for i, body := range bodies {
		activeBody = body
		fmt.Printf("pass %d of %d: radix-8 butterflies on the %s body\n", i+1, len(bodies), body)
		if code = m.Run(); code != 0 {
			break
		}
	}
	os.Exit(code)
}

// onHostPass skips a test that compares the bodies itself unless this is
// the suite's pass on the host's own body and that body is assembly.
func onHostPass(t *testing.T) {
	t.Helper()
	switch {
	case hostBody == cpufeat.Go:
		t.Skip("this CPU has no assembly body")
	case activeBody != hostBody:
		t.Skipf("compares the bodies itself: ran in the %s pass", hostBody)
	}
}

// sameBits reports whether a and b hold the same bits at every index.
func sameBits(a, b []complex128) bool {
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return false
		}
	}
	return len(a) == len(b)
}

// plainTestRun reports whether this binary was asked for tests only.
func plainTestRun() bool {
	for _, name := range []string{"test.bench", "test.fuzz", "test.fuzzworker", "test.cpuprofile", "test.memprofile"} {
		if f := flag.Lookup(name); f != nil && f.Value.String() != "" && f.Value.String() != "false" {
			return false
		}
	}
	return true
}

func randomVector(src *rng.Source, size int) []complex128 {
	v := make([]complex128, size)
	for i := range v {
		v[i] = src.Complex()
	}
	return v
}

func maxDiff(a, b []complex128) float64 {
	var m float64
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func clone(v []complex128) []complex128 { return append([]complex128(nil), v...) }

// DFT computes the O(N^2) discrete Fourier transform directly: the
// reference the fast paths are validated against.
func DFT(data []complex128, sign int) []complex128 {
	size := len(data)
	out := make([]complex128, size)
	for l := 0; l < size; l++ {
		var acc complex128
		for k := 0; k < size; k++ {
			theta := 2 * math.Pi * float64(k) * float64(l) / float64(size)
			if sign < 0 {
				theta = -theta
			}
			acc += data[k] * cmplx.Exp(complex(0, theta))
		}
		out[l] = acc
	}
	return out
}

// inverse runs the unnormalised transform with the -i sign convention, in
// natural order, on two workers: inverse(Forward(x)) == N*x.
func inverse(p *Plan, data []complex128) { p.check(data); p.apply(data, true, Natural, 1, 2) }

// unitaryInverse is the inverse QFT: inverse scaled by 1/sqrt(N).
func unitaryInverse(p *Plan, data []complex128, workers int) {
	p.Transform(data, true, Natural, workers)
}

func mustPlan(t testing.TB, size uint64) *Plan {
	t.Helper()
	p, err := NewPlan(size)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPlanRejectsNonPowerOfTwo(t *testing.T) {
	for _, bad := range []uint64{0, 3, 12, 100} {
		if _, err := NewPlan(bad); err == nil {
			t.Errorf("NewPlan(%d) accepted", bad)
		}
	}
}

func TestForwardMatchesDFT(t *testing.T) {
	src := rng.New(1)
	for _, size := range []int{1, 2, 4, 8, 64, 256} {
		p := mustPlan(t, uint64(size))
		x := randomVector(src, size)
		got := clone(x)
		p.Forward(got)
		if d := maxDiff(got, DFT(x, +1)); d > 1e-9*float64(size) {
			t.Errorf("size %d: forward differs from DFT by %g", size, d)
		}
		gotInv := clone(x)
		inverse(p, gotInv)
		if d := maxDiff(gotInv, DFT(x, -1)); d > 1e-9*float64(size) {
			t.Errorf("size %d: inverse differs from DFT by %g", size, d)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	src := rng.New(2)
	for _, size := range []uint64{2, 16, 1024, 1 << 15} {
		p := mustPlan(t, size)
		x := randomVector(src, int(size))
		got := clone(x)
		p.Forward(got)
		inverse(p, got)
		scale := complex(1/float64(size), 0)
		for i := range got {
			got[i] *= scale
		}
		if d := maxDiff(got, x); d > 1e-10*float64(size) {
			t.Errorf("size %d: round trip error %g", size, d)
		}
	}
}

func TestUnitaryPreservesNorm(t *testing.T) {
	src := rng.New(3)
	size := uint64(1 << 12)
	p := mustPlan(t, size)
	x := randomVector(src, int(size))
	orig := clone(x)
	var normIn float64
	for _, v := range x {
		normIn += real(v)*real(v) + imag(v)*imag(v)
	}
	p.Transform(x, false, Natural, 2)
	var normOut float64
	for _, v := range x {
		normOut += real(v)*real(v) + imag(v)*imag(v)
	}
	if math.Abs(normOut-normIn) > 1e-8*normIn {
		t.Errorf("unitary FFT changed norm: %v -> %v", normIn, normOut)
	}
	unitaryInverse(p, x, 2)
	if d := maxDiff(x, orig); d > 1e-12 {
		t.Errorf("the inverse QFT does not undo the unitary transform: %g", d)
	}
}

func TestSerialMatchesParallel(t *testing.T) {
	src := rng.New(4)
	size := uint64(1 << 15) // above minParallel
	p := mustPlan(t, size)
	x := randomVector(src, int(size))
	a, b := clone(x), clone(x)
	p.Forward(a)
	p.ForwardSerial(b)
	if d := maxDiff(a, b); d > 0 {
		t.Errorf("serial and parallel transforms differ by %g", d)
	}
}

func TestDeltaTransform(t *testing.T) {
	// FFT of a delta at 0 is the all-ones vector.
	p := mustPlan(t, 32)
	x := make([]complex128, 32)
	x[0] = 1
	p.Forward(x)
	for i, v := range x {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("delta transform wrong at %d: %v", i, v)
		}
	}
}

func TestParsevalProperty(t *testing.T) {
	// Parseval: sum |X_k|^2 = N * sum |x_j|^2 for the unnormalised FFT.
	src := rng.New(7)
	size := uint64(512)
	p := mustPlan(t, size)
	x := randomVector(src, int(size))
	var inE float64
	for _, v := range x {
		inE += real(v)*real(v) + imag(v)*imag(v)
	}
	p.Forward(x)
	var outE float64
	for _, v := range x {
		outE += real(v)*real(v) + imag(v)*imag(v)
	}
	if math.Abs(outE-float64(size)*inE) > 1e-6*outE {
		t.Errorf("Parseval violated: %v vs %v", outE, float64(size)*inE)
	}
}

// TestBitReversedEntryPoints pins the reordered orders of Transform
// against the natural-order transform: ReversedOut must equal it composed
// with the bit reversal S of every fibre, ReversedIn must equal it applied
// to S·x, and a ReversedIn of the opposite direction must undo a
// ReversedOut exactly — forward and inverse, over the whole vector and
// over four contiguous fibres, across sizes covering every stage-group
// tiling (lone radix-2, radix-4 head, radix-8 runs). Reverse must be S.
func TestBitReversedEntryPoints(t *testing.T) {
	for n := uint(0); n <= 10; n++ {
		size := uint64(1) << n
		p := mustPlan(t, size)
		for _, fibres := range []uint64{1, 4} {
			orig := randomVector(rng.New(7+uint64(n)), int(size*fibres))
			// rev is S on every fibre, by the definition.
			rev := func(v []complex128) []complex128 {
				out := make([]complex128, len(v))
				for i := range v {
					o, k := uint64(i)>>n, uint64(i)&(size-1)
					out[o<<n|bitops.ReverseBits(k, n)] = v[i]
				}
				return out
			}
			got := clone(orig)
			Reverse(got, n, 2)
			if d := maxDiff(got, rev(orig)); d != 0 {
				t.Fatalf("n=%d fibres=%d: Reverse differs from S by %g", n, fibres, d)
			}
			for _, inv := range []bool{false, true} {
				natural := clone(orig)
				p.Transform(natural, inv, Natural, 2)
				got := clone(orig)
				p.Transform(got, inv, ReversedOut, 2)
				if d := maxDiff(got, rev(natural)); d > 1e-12 {
					t.Fatalf("n=%d fibres=%d inverse=%v: ReversedOut differs from S·F by %g", n, fibres, inv, d)
				}
				p.Transform(got, !inv, ReversedIn, 2)
				if d := maxDiff(got, orig); d > 1e-11 {
					t.Fatalf("n=%d fibres=%d inverse=%v: ReversedIn does not undo ReversedOut: off by %g", n, fibres, inv, d)
				}
				got = rev(orig)
				p.Transform(got, inv, ReversedIn, 2)
				if d := maxDiff(got, natural); d > 1e-12 {
					t.Fatalf("n=%d fibres=%d inverse=%v: ReversedIn differs from F·S by %g", n, fibres, inv, d)
				}
			}
		}
	}
}

// networks are the four butterfly networks a plan can run.
var networks = []struct {
	name         string
	dif, inverse bool
}{
	{"dit", false, false}, {"dit-inverse", false, true},
	{"dif", true, false}, {"dif-inverse", true, true},
}

// TestButterflyBodiesAgree runs every network through every body this
// host runs — sizes 2^1..2^16, so every head radix and every span, and
// 2^20 on one, two and three workers — and requires the two assembly
// bodies to agree bit for bit and each to agree with pure Go to 1e-12; up
// to 2^10 every body must also match the O(N^2) DFT. Then single groups,
// the head of each radix included, over ranges that start and end on odd
// multiples of the AVX2 body's two-butterfly step, on multiples of the
// AVX-512 body's four, and (heads) on an odd end; each must leave
// everything outside the range alone, and where the range is aligned to
// 4 at a span of four or more the AVX-512 entry itself must give the
// AVX2 body's bits.
func TestButterflyBodiesAgree(t *testing.T) {
	onHostPass(t)
	bodies := availableBodies()
	fmt.Printf("fft bodies on this host: %v\n", bodies)
	if hostBody < cpufeat.AVX512 {
		t.Run("body=avx512", func(t *testing.T) {
			t.Skip("this CPU lacks the avx512 body: nothing is held to the AVX2 body bit for bit")
		})
	}
	type job struct {
		n       uint
		workers int
	}
	var jobs []job
	for n := uint(1); n <= 16; n++ {
		jobs = append(jobs, job{n, 2})
	}
	if !testing.Short() {
		jobs = append(jobs, job{20, 1}, job{20, 2}, job{20, 3})
	}
	for _, j := range jobs {
		p := mustPlan(t, 1<<j.n)
		x := randomVector(rng.New(uint64(j.n)), 1<<j.n)
		scale := p.unitaryScale()
		for _, nw := range networks {
			out := make(map[cpufeat.Body][]complex128)
			for _, body := range bodies {
				out[body] = clone(x)
				withBody(body, func() { p.network(out[body], nw.dif, nw.inverse, scale, j.workers) })
			}
			pure := out[cpufeat.Go]
			if zmm, avx2 := out[cpufeat.AVX512], out[cpufeat.AVX2]; zmm != nil && !sameBits(zmm, avx2) {
				t.Errorf("n=%d workers=%d %s: the AVX-512 body differs from the AVX2 one by %g", j.n, j.workers, nw.name, maxDiff(zmm, avx2))
			}
			for _, body := range bodies[:len(bodies)-1] {
				if d := maxDiff(out[body], pure); d > 1e-12 {
					t.Errorf("n=%d workers=%d %s: the %s body differs from pure Go by %g", j.n, j.workers, nw.name, body, d)
				}
			}
			if j.n > 10 {
				continue
			}
			// The DIT network transforms bit-reversed input; the DIF
			// network's output is the transform bit-reversed.
			sign := +1
			if nw.inverse {
				sign = -1
			}
			in := clone(x)
			if !nw.dif {
				bitReverse(in, j.n, 1)
			}
			want := DFT(in, sign)
			for i := range want {
				want[i] *= complex(scale, 0)
			}
			if nw.dif {
				bitReverse(want, j.n, 1)
			}
			for _, body := range bodies {
				if d := maxDiff(out[body], want); d > 1e-10 {
					t.Errorf("n=%d %s: the %s body differs from the DFT by %g", j.n, nw.name, body, d)
				}
			}
		}
	}

	// Sizes 2^12, 2^13, 2^14 open with a radix-8, radix-2 and radix-4
	// head; the heads scale their outputs. 2^13 has the span-two group,
	// 2^14 the span-four one.
	for _, n := range []uint{12, 13, 14} {
		p := mustPlan(t, 1<<n)
		x := randomVector(rng.New(uint64(n)), 1<<n)
		for gi := range p.groups {
			g := &p.groups[gi]
			count := p.size >> g.stages()
			ranges := [][2]uint64{{2, count - 2}, {6, 6}, {6, 8}, {2 * 37, 2 * 211}, {count - 2, count}, {4, count - 4}, {8, 16}, {0, count}}
			if g.s == 0 {
				ranges = append(ranges, [2]uint64{6, 9})
			}
			for _, r := range ranges {
				for _, nw := range networks {
					out := make(map[cpufeat.Body][]complex128)
					for _, body := range bodies {
						out[body] = clone(x)
						withBody(body, func() { g.run(out[body], r[0], r[1], nw.dif, nw.inverse, 0.75) })
					}
					where := fmt.Sprintf("n=%d s=%d radix=%d [%d,%d) %s", n, g.s, g.radix, r[0], r[1], nw.name)
					pure, avx2 := out[cpufeat.Go], out[cpufeat.AVX2]
					if zmm := out[cpufeat.AVX512]; zmm != nil && !sameBits(zmm, avx2) {
						t.Errorf("%s: the AVX-512 body differs from the AVX2 one by %g", where, maxDiff(zmm, avx2))
					}
					if d := maxDiff(avx2, pure); d > 1e-12 {
						t.Errorf("%s: the assembly bodies differ from pure Go by %g", where, d)
					}
					if hostBody == cpufeat.AVX512 && g.s >= 2 && (r[0]|r[1])&3 == 0 {
						zmm := clone(x)
						butterfly8AVX512(zmm, g.tw, g.s, r[0], r[1], nw.dif, nw.inverse)
						if !sameBits(zmm, avx2) {
							t.Errorf("%s: butterfly8AVX512 differs from the AVX2 body by %g", where, maxDiff(zmm, avx2))
						}
					}
					for _, body := range bodies {
						touched := 0
						for i, v := range out[body] {
							if v != x[i] {
								touched++
							}
						}
						if want := g.radix * int(r[1]-r[0]); touched > want {
							t.Errorf("%s: the %s body changed %d amplitudes, range holds %d", where, body, touched, want)
						}
					}
				}
			}
		}
	}
}

// TestHead8IsButterfly8 pins the radix-8 head to the generic pure-Go body
// at span one, bit for bit: folding the twiddles that are 1 away must not
// change a single result, in any network, scaled or not.
func TestHead8IsButterfly8(t *testing.T) {
	p := mustPlan(t, 1<<9)
	g := &p.groups[0]
	x := randomVector(rng.New(9), 1<<9)
	for _, nw := range networks {
		for _, scale := range []float64{1, p.unitaryScale()} {
			head, generic := clone(x), clone(x)
			head8(head, g.tw[twW3b], 3, 61, nw.dif, nw.inverse, scale)
			butterfly8Go(generic, g.tw, 0, 3, 61, nw.dif, nw.inverse, scale)
			for i := range head {
				if head[i] != generic[i] {
					t.Fatalf("%s scale=%g: amplitude %d is %v, butterfly8Go gives %v", nw.name, scale, i, head[i], generic[i])
				}
			}
		}
	}
}

// TestButterflyAsmRejectsBadRanges pins the checks in front of the
// unchecked assembly: the AVX2 entries' and, on a host that runs it, the
// AVX-512 entry's.
func TestButterflyAsmRejectsBadRanges(t *testing.T) {
	onHostPass(t)
	p := mustPlan(t, 1<<9)
	data := make([]complex128, 1<<9)
	g, head := p.groups[1], &p.groups[0]
	two := mustPlan(t, 1<<10).groups[1] // the span-two group
	cases := map[string]func(){
		"odd start":      func() { butterfly8Asm(data, g.tw, g.s, 1, 4, false, false) },
		"odd end":        func() { butterfly8Asm(data, g.tw, g.s, 0, 3, false, false) },
		"past end":       func() { butterfly8Asm(data, g.tw, g.s, 0, 66, false, false) },
		"backwards":      func() { butterfly8Asm(data, g.tw, g.s, 4, 2, false, false) },
		"span one":       func() { butterfly8Asm(data, p.groups[0].tw, 0, 0, 2, false, false) },
		"short table":    func() { butterfly8Asm(data, g.tw[:tableLen(g.s)-1], g.s, 0, 2, false, false) },
		"head odd start": func() { headAsm(head, data, 1, 4, false, false, 1) },
		"head odd end":   func() { headAsm(head, data, 0, 3, false, false, 1) },
		"head past end":  func() { headAsm(head, data, 0, 66, false, false, 1) },
		"head backwards": func() { headAsm(head, data, 4, 2, false, false, 1) },
		"head no table":  func() { headAsm(&stageGroup{radix: 8}, data, 0, 2, false, false, 1) },
		"head at span 2": func() { headAsm(&g, data, 0, 2, false, false, 1) },
		"head radix 2":   func() { headAsm(&mustPlan(t, 1<<10).groups[0], data, 0, 2, false, false, 1) },
		"head4 past end": func() { headAsm(&mustPlan(t, 1<<8).groups[0], data, 0, 130, false, false, 1) },
	}
	if hostBody == cpufeat.AVX512 {
		for name, f := range map[string]func(){
			"zmm start off 4": func() { butterfly8AVX512(data, g.tw, g.s, 2, 8, false, false) },
			"zmm end off 4":   func() { butterfly8AVX512(data, g.tw, g.s, 0, 6, false, false) },
			"zmm past end":    func() { butterfly8AVX512(data, g.tw, g.s, 0, 68, false, false) },
			"zmm backwards":   func() { butterfly8AVX512(data, g.tw, g.s, 8, 4, false, false) },
			"zmm span two":    func() { butterfly8AVX512(data, two.tw, two.s, 0, 4, false, false) },
			"zmm span one":    func() { butterfly8AVX512(data, head.tw, 0, 0, 4, false, false) },
			"zmm short table": func() { butterfly8AVX512(data, g.tw[:tableLen(g.s)-1], g.s, 0, 4, false, true) },
			"zmm no table":    func() { butterfly8AVX512(data, nil, g.s, 0, 4, true, false) },
		} {
			cases[name] = f
		}
	}
	for name, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: accepted", name)
				}
			}()
			f()
		}()
	}
	// The checks let every legal range through.
	butterfly8Asm(data, g.tw, g.s, 2, 64, true, false)
	if hostBody == cpufeat.AVX512 {
		butterfly8AVX512(data, g.tw, g.s, 4, 64, true, false)
		butterfly8AVX512(data, g.tw, g.s, 8, 8, false, true)
	}
}

// TestPackedTwiddlesMatchStrided checks the access-ordered tables — runs
// of four offsets, each factor a 64-byte quadruple — entry by entry
// against the single strided table they replace — tw[k] =
// exp(2 pi i k / size) read at j*(size>>(stage+1)) — which they must equal
// bit for bit (the angles are the same floats), the derived factors
// against the entries they stand in for, and that from span four on the
// runs tile the table with neither a gap nor an overlap.
func TestPackedTwiddlesMatchStrided(t *testing.T) {
	for _, n := range []uint{3, 4, 5, 9, 10, 11, 14} {
		p := mustPlan(t, 1<<n)
		strided := func(k uint64) complex128 {
			return cmplx.Exp(complex(0, 2*math.Pi*float64(k)/float64(p.size)))
		}
		for gi := range p.groups {
			g := &p.groups[gi]
			if g.radix != 8 {
				if g.tw != nil {
					t.Errorf("n=%d: radix-%d head carries a table", n, g.radix)
				}
				continue
			}
			h := uint64(1) << g.s
			if got, want := uint64(len(g.tw)), max(h/4, 1)*twRun; got != want {
				t.Fatalf("n=%d s=%d: table holds %d entries, want %d", n, g.s, got, want)
			}
			w1step, w2step, w3step := p.size>>(g.s+1), p.size>>(g.s+2), p.size>>(g.s+3)
			reads := make([]int, len(g.tw))
			for j := uint64(0); j < h; j++ {
				run := runOf(g.tw, j)
				base := len(g.tw) - len(run)
				for _, f := range []int{twW1, twW2a, twW3a, twW3b} {
					reads[base+f]++
				}
				for _, c := range []struct {
					name      string
					got, want complex128
				}{
					{"w1", run[twW1], strided(j * w1step)},
					{"w2a", run[twW2a], strided(j * w2step)},
					{"w3a", run[twW3a], strided(j * w3step)},
					{"w3b", run[twW3b], strided((j + h) * w3step)},
				} {
					if c.got != c.want {
						t.Fatalf("n=%d s=%d j=%d %s: packed %v, strided %v", n, g.s, j, c.name, c.got, c.want)
					}
				}
				// The three derived factors, as the butterflies form them.
				for _, c := range []struct {
					name      string
					got, want complex128
				}{
					{"w2b", rot(run[twW2a], 1), strided((j + h) * w2step)},
					{"w3c", rot(run[twW3a], 1), strided((j + 2*h) * w3step)},
					{"w3d", rot(run[twW3b], 1), strided((j + 3*h) * w3step)},
				} {
					if cmplx.Abs(c.got-c.want) > 1e-15 {
						t.Fatalf("n=%d s=%d j=%d %s: derived %v, strided %v", n, g.s, j, c.name, c.got, c.want)
					}
				}
			}
			for i, r := range reads {
				if r > 1 || (r == 0 && h >= 4) {
					t.Fatalf("n=%d s=%d: table entry %d is read by %d offsets", n, g.s, i, r)
				}
			}
		}
	}
	// The inverse direction is the conjugate: inverse(x) = conj(Forward(conj(x))).
	p := mustPlan(t, 1<<12)
	x := randomVector(rng.New(12), 1<<12)
	inv := clone(x)
	inverse(p, inv)
	fw := make([]complex128, len(x))
	for i, v := range x {
		fw[i] = cmplx.Conj(v)
	}
	p.Forward(fw)
	for i := range fw {
		fw[i] = cmplx.Conj(fw[i])
	}
	if d := maxDiff(inv, fw); d > 1e-12 {
		t.Errorf("inverse is not the conjugate transform: %g", d)
	}
}

// TestBitReverseBlocked checks the blocked reversal against the definition
// for every n from 0 to 22 (18 under -short), on one and three workers: it
// must move amplitude i to rev(i), and twice must be the identity.
func TestBitReverseBlocked(t *testing.T) {
	maxN := uint(22)
	if testing.Short() {
		maxN = 18
	}
	data := make([]complex128, 1<<maxN)
	for n := uint(0); n <= maxN; n++ {
		v := data[:1<<n]
		for _, workers := range []int{1, 3} {
			for i := range v {
				v[i] = complex(float64(i), 0)
			}
			bitReverse(v, n, workers)
			for i, a := range v {
				if want := bitops.ReverseBits(uint64(i), n); a != complex(float64(want), 0) {
					t.Fatalf("n=%d workers=%d: position %d holds %v, want amplitude %d", n, workers, i, a, want)
				}
			}
			bitReverse(v, n, workers)
			for i, a := range v {
				if a != complex(float64(i), 0) {
					t.Fatalf("n=%d workers=%d: reversing twice leaves %v at %d", n, workers, a, i)
				}
			}
		}
	}
}

// TestPlanShared pins the sharing contract: concurrent requests for one
// size up to maxEagerSize all get the same, built plan; larger plans are
// private and unbuilt.
func TestPlanShared(t *testing.T) {
	const size = 1 << 13
	plans := make([]*Plan, 8)
	var wg sync.WaitGroup
	for i := range plans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := NewPlan(size)
			if err != nil {
				t.Error(err)
				return
			}
			// A transform on the shared plan, racing the other callers.
			x := make([]complex128, size)
			x[1] = 1
			p.Transform(x, false, Natural, 2)
			plans[i] = p
		}()
	}
	wg.Wait()
	for i, p := range plans {
		if p != plans[0] {
			t.Fatalf("caller %d got its own plan for size %d", i, size)
		}
	}
	for _, g := range plans[0].groups {
		if g.radix == 8 && g.tw == nil {
			t.Fatalf("shared plan handed out with the stage-%d table unbuilt", g.s)
		}
	}
	if p := mustPlan(t, maxEagerSize); p != mustPlan(t, maxEagerSize) {
		t.Error("plans of maxEagerSize are not shared")
	}

	a, b := mustPlan(t, 2*maxEagerSize), mustPlan(t, 2*maxEagerSize)
	if a == b {
		t.Error("a plan above maxEagerSize is retained")
	}
	for _, g := range a.groups {
		if g.tw != nil {
			t.Error("a plan above maxEagerSize built its tables in NewPlan")
		}
	}
	for n := range shared.plans {
		if p := shared.plans[n]; p != nil && p.size > maxEagerSize {
			t.Errorf("shared table holds a plan of size %d", p.size)
		}
	}
}

// parOffCaller is par's count of the chunks its workers have run rather
// than the goroutine that called For, reached by name: it exists for tests.
//
//go:linkname parOffCaller repro/internal/par.offCaller
var parOffCaller atomic.Int64

// TestWorkerCountIsExact pins what a worker count means: one worker runs
// every entry point on the calling goroutine alone, and w workers split a
// pass into w chunks, the caller's and at most w-1 others.
func TestWorkerCountIsExact(t *testing.T) {
	const n = 15 // above minParallel
	p := mustPlan(t, 1<<n)
	x := randomVector(rng.New(n), 1<<n)
	field := mustPlan(t, 1<<6)
	before := parOffCaller.Load()
	p.ForwardSerial(x)
	p.InverseSerial(x)
	p.Transform(x, false, Natural, 1)
	unitaryInverse(p, x, 1)
	for _, order := range []Order{ReversedOut, ReversedIn} {
		p.Transform(x, false, order, 1)
		field.Transform(x, true, order, 1)
	}
	Reverse(x, n, 1)
	Reverse(x, 6, 1)
	field.TransformField(x, 0, false, 1)
	field.TransformField(x, 3, true, 1)
	if got := parOffCaller.Load() - before; got != 0 {
		t.Errorf("one worker ran %d chunks off the calling goroutine", got)
	}
	before = parOffCaller.Load()
	p.Transform(x, false, Natural, 3)
	// The reordering pass, the blocked pass, and one per remaining group.
	passes := int64(2 + len(p.groups) - p.blocked())
	if got := parOffCaller.Load() - before; got > 2*passes {
		t.Errorf("three workers over %d passes ran %d chunks off the calling goroutine, want at most %d", passes, got, 2*passes)
	}
}

// TestTransformField checks field transforms against per-fibre transforms
// of gathered copies, for a field at bit 0 and one higher up, serial and
// parallel.
func TestTransformField(t *testing.T) {
	const n, w = 15, 6
	p := mustPlan(t, 1<<w)
	x := randomVector(rng.New(15), 1<<n)
	for _, pos := range []uint{0, 4, n - w} {
		for _, inverse := range []bool{false, true} {
			want := clone(x)
			fibre := make([]complex128, 1<<w)
			for o := uint64(0); o < 1<<(n-w); o++ {
				rest := expandOuter(o, pos, w)
				for k := range fibre {
					fibre[k] = want[rest|uint64(k)<<pos]
				}
				if inverse {
					unitaryInverse(p, fibre, 1)
				} else {
					p.Transform(fibre, false, Natural, 1)
				}
				for k, v := range fibre {
					want[rest|uint64(k)<<pos] = v
				}
			}
			for _, workers := range []int{1, 3} {
				got := clone(x)
				p.TransformField(got, pos, inverse, workers)
				if d := maxDiff(got, want); d > 0 {
					t.Errorf("pos=%d inverse=%v workers=%d: differs from per-fibre transforms by %g", pos, inverse, workers, d)
				}
			}
		}
	}
}

// TestFibresAreOneNetwork pins Transform over many contiguous fibres —
// each pass run once across all of them — to the fibres transformed one
// at a time, bit for bit: fibre sizes 2^1..2^13 (every head radix, and
// fibres below, at and above the blocked pass's block), 2, 8 and 64 of
// them, in every order and direction, on one and three workers.
func TestFibresAreOneNetwork(t *testing.T) {
	for w := uint(1); w <= 13; w++ {
		p := mustPlan(t, 1<<w)
		for _, k := range []uint{1, 3, 6} {
			if w+k > 16 {
				continue
			}
			x := randomVector(rng.New(uint64(w<<8|k)), 1<<(w+k))
			// A lone 8-point fibre is a range of one head butterfly, which
			// runs on the Go head; the fibres together run on the
			// assembly, whose W_8 multiply is fused.
			tol := 0.0
			if w == 3 && activeBody != cpufeat.Go {
				tol = 1e-15
			}
			for _, order := range []Order{Natural, ReversedOut, ReversedIn} {
				for _, inv := range []bool{false, true} {
					want := clone(x)
					for o := uint64(0); o < 1<<k; o++ {
						p.Transform(want[o<<w:(o+1)<<w], inv, order, 1)
					}
					for _, workers := range []int{1, 3} {
						got := clone(x)
						p.Transform(got, inv, order, workers)
						if d := maxDiff(got, want); d > tol {
							t.Errorf("w=%d fibres=%d order=%d inverse=%v workers=%d: differs from one fibre at a time by %g", w, 1<<k, order, inv, workers, d)
						}
					}
				}
			}
		}
	}
}

// FuzzTransform draws size, entry point, worker count, fibre count, body
// and data from the input and checks, for whichever transform it picked,
// that it agrees on the drawn body with pure Go (and, on the AVX-512
// body, bit for bit with the AVX2 one) and that its inverse undoes it. The
// entry points are the natural-order ones over the whole vector, and
// every order of Transform in both directions, over the whole vector and
// over its contiguous fibres, each paired with the transform that undoes
// it (ReversedOut with ReversedIn of the opposite direction and back).
// Over fibres the result must also equal the fibres transformed one at a
// time.
func FuzzTransform(f *testing.F) {
	f.Add(uint8(4), uint8(0), uint8(1), uint8(2), uint8(0), []byte("seed"))
	f.Add(uint8(11), uint8(1), uint8(2), uint8(5), uint8(1), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(uint8(13), uint8(2), uint8(3), uint8(0), uint8(2), []byte{0xff, 0, 0x80})
	f.Add(uint8(15), uint8(3), uint8(2), uint8(7), uint8(0), []byte{})
	f.Add(uint8(14), uint8(5), uint8(2), uint8(11), uint8(1), []byte{7, 1, 200})
	f.Add(uint8(9), uint8(10), uint8(3), uint8(6), uint8(2), []byte{3, 0, 9, 77})
	f.Add(uint8(16), uint8(13), uint8(3), uint8(13), uint8(0), []byte{5, 9})
	f.Fuzz(func(t *testing.T, lg, entry, workers, fibres, bodyPick uint8, raw []byte) {
		n := uint(lg % 17)
		w := int(workers%4) + 1
		p := mustPlan(t, 1<<n)
		x := make([]complex128, 1<<n)
		for i := range x {
			var re, im byte
			if len(raw) > 0 {
				re, im = raw[(2*i)%len(raw)], raw[(2*i+1)%len(raw)]
			}
			x[i] = complex(float64(re)-128, float64(im)-128) / 128
		}
		// Each entry point with the one that undoes it, the factor the
		// pair leaves behind and, over fibres, the transform of one fibre.
		type transform func([]complex128)
		type pair struct {
			do, undo transform
			factor   float64
			one      transform
		}
		pairs := []pair{
			{p.Forward, func(d []complex128) { inverse(p, d) }, float64(p.size), nil},
			{p.InverseSerial, p.ForwardSerial, float64(p.size), nil},
			{func(d []complex128) { p.Transform(d, false, Natural, w) }, func(d []complex128) { unitaryInverse(p, d, w) }, 1, nil},
			{func(d []complex128) { p.TransformField(d, 0, false, w) }, func(d []complex128) { p.TransformField(d, 0, true, w) }, 1, nil},
		}
		// Every order, over the whole vector and over 2^k contiguous
		// fibres.
		k := uint(fibres) % (n + 1)
		q := mustPlan(t, 1<<(n-k))
		undoes := map[Order]Order{Natural: Natural, ReversedOut: ReversedIn, ReversedIn: ReversedOut}
		for _, r := range []*Plan{p, q} {
			for _, inv := range []bool{false, true} {
				for _, order := range []Order{Natural, ReversedOut, ReversedIn} {
					pr := pair{
						func(d []complex128) { r.Transform(d, inv, order, w) },
						func(d []complex128) { r.Transform(d, !inv, undoes[order], w) }, 1, nil,
					}
					if r == q {
						pr.one = func(d []complex128) { q.Transform(d, inv, order, 1) }
					}
					pairs = append(pairs, pr)
				}
			}
		}
		pr := pairs[int(entry)%len(pairs)]
		body := cpufeat.Body(int(bodyPick) % (int(hostBody) + 1))
		got := clone(x)
		withBody(body, func() { pr.do(got) })
		pure := clone(x)
		withBody(cpufeat.Go, func() { pr.do(pure) })
		tol := 1e-12 * float64(p.size)
		if d := maxDiff(got, pure); d > tol {
			t.Fatalf("n=%d entry=%d workers=%d fibres=%d: the %s body differs from pure Go by %g", n, entry, w, 1<<k, body, d)
		}
		if body == cpufeat.AVX512 {
			avx2 := clone(x)
			withBody(cpufeat.AVX2, func() { pr.do(avx2) })
			if !sameBits(got, avx2) {
				t.Fatalf("n=%d entry=%d workers=%d fibres=%d: the AVX-512 body differs from the AVX2 one by %g", n, entry, w, 1<<k, maxDiff(got, avx2))
			}
		}
		if pr.one != nil {
			want := clone(x)
			for o := uint64(0); o < 1<<k; o++ {
				pr.one(want[o*q.size : (o+1)*q.size])
			}
			if d := maxDiff(got, want); d > tol {
				t.Fatalf("n=%d entry=%d workers=%d fibres=%d: differs from one fibre at a time by %g", n, entry, w, 1<<k, d)
			}
		}
		pr.undo(got)
		for i := range got {
			got[i] /= complex(pr.factor, 0)
		}
		if d := maxDiff(got, x); d > tol {
			t.Fatalf("n=%d entry=%d workers=%d fibres=%d: round trip off by %g", n, entry, w, 1<<k, d)
		}
	})
}
