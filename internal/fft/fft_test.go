package fft

import (
	"flag"
	"fmt"
	"math"
	"math/cmplx"
	"os"
	"sync"
	"testing"

	"repro/internal/bitops"
	"repro/internal/rng"
)

// TestMain runs the suite twice on a host that runs the assembly
// butterflies: the second pass is on the pure-Go body, the one every other
// host uses. Benchmark, fuzz and profile invocations run once.
func TestMain(m *testing.M) {
	code := m.Run()
	if code == 0 && useButterflyAsm && plainTestRun() {
		useButterflyAsm = false
		fmt.Println("second pass: radix-8 butterflies on the pure-Go body")
		code = m.Run()
	}
	os.Exit(code)
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
func inverse(p *Plan, data []complex128) { p.transform(data, true, 1, 2) }

// unitaryInverse is the inverse QFT: inverse scaled by 1/sqrt(N).
func unitaryInverse(p *Plan, data []complex128, workers int) {
	p.transform(data, true, p.unitaryScale(), workers)
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
	p.Unitary(x, 2)
	var normOut float64
	for _, v := range x {
		normOut += real(v)*real(v) + imag(v)*imag(v)
	}
	if math.Abs(normOut-normIn) > 1e-8*normIn {
		t.Errorf("unitary FFT changed norm: %v -> %v", normIn, normOut)
	}
	unitaryInverse(p, x, 2)
	if d := maxDiff(x, orig); d > 1e-12 {
		t.Errorf("the inverse QFT does not undo Unitary: %g", d)
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

// TestBitReversedEntryPoints pins the zero-reorder transforms the
// emulation dispatcher uses: UnitaryBitReversed must equal the unitary
// transform composed with the bit-reversal permutation, and
// UnitaryInverseFromBitReversed must be its exact inverse — across sizes
// covering every stage-group tiling (lone radix-2, radix-4 head,
// radix-8 runs).
func TestBitReversedEntryPoints(t *testing.T) {
	for n := uint(1); n <= 10; n++ {
		size := uint64(1) << n
		p := mustPlan(t, size)
		orig := randomVector(rng.New(7+uint64(n)), int(size))
		want := clone(orig)
		p.Unitary(want, 1)
		perm := make([]complex128, size)
		for i := uint64(0); i < size; i++ {
			perm[bitops.ReverseBits(i, n)] = want[i]
		}
		got := clone(orig)
		p.UnitaryBitReversed(got, 2)
		if d := maxDiff(got, perm); d > 1e-12 {
			t.Fatalf("n=%d: UnitaryBitReversed differs from S·F by %g", n, d)
		}
		p.UnitaryInverseFromBitReversed(got, 2)
		if d := maxDiff(got, orig); d > 1e-11 {
			t.Fatalf("n=%d: inverse round trip differs by %g", n, d)
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

// TestButterflyBodiesAgree runs every network through both bodies of the
// radix-8 butterflies — sizes 2^1..2^16, so every head radix and every
// span from 2 up, and 2^20 on one, two and three workers — and requires
// agreement to 1e-12; up to 2^10 both must also match the O(N^2) DFT.
// Then single groups over ranges that start and end on odd multiples of
// the assembly's two-butterfly step, which must leave everything outside
// the range alone.
func TestButterflyBodiesAgree(t *testing.T) {
	if !useButterflyAsm {
		t.Skip("one body on this host (or this is the pure-Go pass)")
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
			asm, pure := clone(x), clone(x)
			p.network(asm, nw.dif, nw.inverse, scale, j.workers)
			withBody(false, func() { p.network(pure, nw.dif, nw.inverse, scale, j.workers) })
			if d := maxDiff(asm, pure); d > 1e-12 {
				t.Errorf("n=%d workers=%d %s: bodies differ by %g", j.n, j.workers, nw.name, d)
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
			if d := maxDiff(asm, want); d > 1e-10 {
				t.Errorf("n=%d %s: assembly body differs from the DFT by %g", j.n, nw.name, d)
			}
			if d := maxDiff(pure, want); d > 1e-10 {
				t.Errorf("n=%d %s: pure-Go body differs from the DFT by %g", j.n, nw.name, d)
			}
		}
	}

	p := mustPlan(t, 1<<13)
	x := randomVector(rng.New(13), 1<<13)
	for gi := range p.groups {
		g := &p.groups[gi]
		if g.s == 0 {
			continue
		}
		count := p.size >> 3
		for _, r := range [][2]uint64{{2, count - 2}, {6, 6}, {6, 8}, {2 * 37, 2 * 211}, {count - 2, count}} {
			for _, nw := range networks {
				asm, pure := clone(x), clone(x)
				g.run(asm, r[0], r[1], nw.dif, nw.inverse, 1)
				withBody(false, func() { g.run(pure, r[0], r[1], nw.dif, nw.inverse, 1) })
				if d := maxDiff(asm, pure); d > 1e-12 {
					t.Errorf("s=%d [%d,%d) %s: bodies differ by %g", g.s, r[0], r[1], nw.name, d)
				}
				touched := 0
				for i := range asm {
					if asm[i] != x[i] {
						touched++
					}
				}
				if want := int(8 * (r[1] - r[0])); touched > want {
					t.Errorf("s=%d [%d,%d) %s: %d amplitudes changed, range holds %d", g.s, r[0], r[1], nw.name, touched, want)
				}
			}
		}
	}
}

// TestButterflyAsmRejectsBadRanges pins the checks in front of the
// unchecked assembly.
func TestButterflyAsmRejectsBadRanges(t *testing.T) {
	if !useButterflyAsm {
		t.Skip("no assembly body on this host (or this is the pure-Go pass)")
	}
	p := mustPlan(t, 1<<9)
	data := make([]complex128, 1<<9)
	g := p.groups[1]
	for name, f := range map[string]func(){
		"odd start":   func() { butterfly8Asm(data, g.tw, g.s, 1, 4, false, false) },
		"odd end":     func() { butterfly8Asm(data, g.tw, g.s, 0, 3, false, false) },
		"past end":    func() { butterfly8Asm(data, g.tw, g.s, 0, 66, false, false) },
		"backwards":   func() { butterfly8Asm(data, g.tw, g.s, 4, 2, false, false) },
		"span one":    func() { butterfly8Asm(data, p.groups[0].tw, 0, 0, 2, false, false) },
		"short table": func() { butterfly8Asm(data, g.tw[:twRun], g.s, 0, 2, false, false) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: accepted", name)
				}
			}()
			f()
		}()
	}
}

// TestPackedTwiddlesMatchStrided checks the access-ordered tables entry by
// entry against the single strided table they replace — tw[k] =
// exp(2 pi i k / size) read at j*(size>>(stage+1)) — which they must equal
// bit for bit (the angles are the same floats), and the derived factors
// against the entries they stand in for.
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
			if got, want := uint64(len(g.tw)), max(h/2, 1)*twRun; got != want {
				t.Fatalf("n=%d s=%d: table holds %d entries, want %d", n, g.s, got, want)
			}
			w1step, w2step, w3step := p.size>>(g.s+1), p.size>>(g.s+2), p.size>>(g.s+3)
			for j := uint64(0); j < h; j++ {
				run := runOf(g.tw, j)
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
			p.Unitary(x, 2)
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

// TestWorkerCountIsExact pins what a worker count means: one worker runs
// every entry point on the calling goroutine alone, and w workers start
// w-1 goroutines per pass, never more.
func TestWorkerCountIsExact(t *testing.T) {
	const n = 15 // above minParallel
	p := mustPlan(t, 1<<n)
	x := randomVector(rng.New(n), 1<<n)
	field := mustPlan(t, 1<<6)
	before := spawned.Load()
	p.ForwardSerial(x)
	p.InverseSerial(x)
	p.Unitary(x, 1)
	unitaryInverse(p, x, 1)
	p.UnitaryBitReversed(x, 1)
	p.UnitaryInverseFromBitReversed(x, 1)
	field.TransformField(x, 0, false, 1)
	field.TransformField(x, 3, true, 1)
	if got := spawned.Load() - before; got != 0 {
		t.Errorf("one worker started %d goroutines", got)
	}
	before = spawned.Load()
	p.Unitary(x, 3)
	// The reordering pass, the blocked pass, and one per remaining group.
	passes := int64(2 + len(p.groups) - p.blocked())
	if got := spawned.Load() - before; got != 2*passes {
		t.Errorf("three workers over %d passes started %d goroutines, want %d", passes, got, 2*passes)
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
					p.Unitary(fibre, 1)
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

// FuzzTransform draws size, entry point, worker count and data from the
// input and checks, for whichever transform it picked, that it agrees
// between the two bodies and that its inverse undoes it.
func FuzzTransform(f *testing.F) {
	f.Add(uint8(4), uint8(0), uint8(1), []byte("seed"))
	f.Add(uint8(11), uint8(1), uint8(2), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(uint8(13), uint8(2), uint8(3), []byte{0xff, 0, 0x80})
	f.Add(uint8(15), uint8(3), uint8(2), []byte{})
	f.Fuzz(func(t *testing.T, lg, entry, workers uint8, raw []byte) {
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
		// Each entry point with the one that undoes it and the factor the
		// pair leaves behind.
		type transform func([]complex128)
		pairs := []struct {
			do, undo transform
			factor   float64
		}{
			{p.Forward, func(d []complex128) { inverse(p, d) }, float64(p.size)},
			{p.InverseSerial, p.ForwardSerial, float64(p.size)},
			{func(d []complex128) { p.Unitary(d, w) }, func(d []complex128) { unitaryInverse(p, d, w) }, 1},
			{func(d []complex128) { p.UnitaryBitReversed(d, w) }, func(d []complex128) { p.UnitaryInverseFromBitReversed(d, w) }, 1},
			{func(d []complex128) { p.TransformField(d, 0, false, w) }, func(d []complex128) { p.TransformField(d, 0, true, w) }, 1},
		}
		pair := pairs[int(entry)%len(pairs)]
		got := clone(x)
		pair.do(got)
		pure := clone(x)
		withBody(false, func() { pair.do(pure) })
		tol := 1e-12 * float64(p.size)
		if d := maxDiff(got, pure); d > tol {
			t.Fatalf("n=%d entry=%d workers=%d: bodies differ by %g", n, entry, w, d)
		}
		pair.undo(got)
		for i := range got {
			got[i] /= complex(pair.factor, 0)
		}
		if d := maxDiff(got, x); d > tol {
			t.Fatalf("n=%d entry=%d workers=%d: round trip off by %g", n, entry, w, d)
		}
	})
}
