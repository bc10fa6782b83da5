package backend_test

import (
	"math"
	"testing"

	"repro/internal/backend"
	"repro/internal/circgen"
	"repro/internal/circuit"
	"repro/internal/cpufeat"
	"repro/internal/qft"
	"repro/internal/recognize"
	"repro/internal/rng"
	"repro/internal/statevec"
)

// TestGoBodyReachesBothKernelFamilies holds cpufeat's one switch to what
// it says: set to Go, it puts a backend's dense blocks and a Fourier op's
// butterflies each on its pure-Go body. The assembly bodies of each family
// agree bit for bit (TestDenseBodiesAgree, TestButterflyBodiesAgree) and
// pure Go rounds each product where they fuse it into an FMA, so a run
// that differs from the host body's in the last bits, while agreeing to
// 1e-12, ran pure Go. Set back, the host body reproduces its first run bit
// for bit.
func TestGoBodyReachesBothKernelFamilies(t *testing.T) {
	host := activeBody
	switch {
	case !hostPass:
		t.Skip("compares the bodies itself: ran in the first pass")
	case host == cpufeat.Go:
		t.Skip("this CPU has no assembly body")
	}
	for _, f := range []struct {
		name string
		c    *circuit.Circuit
		tgt  backend.Target
	}{
		{"dense blocks", circgen.Brickwork(rng.New(3), 10, 6),
			backend.Target{NumQubits: 10, Kind: backend.Fused, FuseWidth: 4}},
		{"butterflies", qft.Circuit(12),
			backend.Target{NumQubits: 12, Kind: backend.Fused, FuseWidth: 4, Emulate: recognize.Annotated}},
	} {
		x, err := backend.Compile(f.c, f.tgt)
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		start := statevec.NewRandom(f.c.NumQubits, rng.New(7))
		run := func(body cpufeat.Body) *statevec.State {
			activeBody = body
			defer func() { activeBody = host }()
			b, err := backend.New(x.Target)
			if err != nil {
				t.Fatalf("%s: %v", f.name, err)
			}
			defer b.Close()
			copy(b.State().Amplitudes(), start.Amplitudes())
			if err := b.RunUnits(x, 0, len(x.Units)); err != nil {
				t.Fatalf("%s: %v", f.name, err)
			}
			return b.State().Clone()
		}
		want, pure, again := run(host), run(cpufeat.Go), run(host)
		if d := pure.MaxDiff(want); d > 1e-12 {
			t.Fatalf("%s: the go body is %g from the %s body", f.name, d, host)
		}
		if !sameAmplitudes(again, want) {
			t.Fatalf("%s: the %s body did not reproduce its own run", f.name, host)
		}
		if sameAmplitudes(pure, want) {
			t.Fatalf("%s: the go body ran bit for bit as the %s body: the switch did not reach the kernels", f.name, host)
		}
	}
}

// sameAmplitudes reports whether a and b hold the same bits everywhere.
func sameAmplitudes(a, b *statevec.State) bool {
	x, y := a.Amplitudes(), b.Amplitudes()
	for i := range x {
		if math.Float64bits(real(x[i])) != math.Float64bits(real(y[i])) ||
			math.Float64bits(imag(x[i])) != math.Float64bits(imag(y[i])) {
			return false
		}
	}
	return len(x) == len(y)
}
