package backend_test

import (
	"runtime"
	"sync/atomic"
	"testing"
	_ "unsafe" // go:linkname

	"repro/internal/backend"
	"repro/internal/circuit"
	"repro/internal/qft"
	"repro/internal/recognize"
)

// parOffCaller is par's count of the chunks its workers have run rather
// than the goroutine that called For, reached by name: it exists for tests.
//
//go:linkname parOffCaller repro/internal/par.offCaller
var parOffCaller atomic.Int64

// TestOneWorkerBackendStaysOnOneGoroutine pins Target.Workers = 1 end to
// end: a recognised QFT large enough for every kernel to go parallel runs
// on the calling goroutine alone — neither the Fourier transform (it used
// to size itself from GOMAXPROCS whatever the target said) nor a state
// kernel hands par's workers a chunk, and no goroutine outlives the run.
// Noise trajectories rely on this: their parallelism is across
// trajectories.
func TestOneWorkerBackendStaysOnOneGoroutine(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs GOMAXPROCS >= 2 to tell one worker from the default")
	}
	const n = 15
	for _, c := range []struct {
		name string
		circ *circuit.Circuit
	}{
		{"qft", qft.Circuit(n)},
		{"qft-noswap", qft.CircuitNoSwap(n)},
	} {
		x, err := backend.Compile(c.circ, backend.Target{NumQubits: n, Kind: backend.Fused, FuseWidth: 2,
			Emulate: recognize.Annotated, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if x.EmulatedGates == 0 {
			t.Fatalf("%s: nothing was emulated", c.name)
		}
		b, err := backend.New(x.Target)
		if err != nil {
			t.Fatal(err)
		}
		goroutines, offCaller := runtime.NumGoroutine(), parOffCaller.Load()
		if _, err := b.Run(x); err != nil {
			t.Fatal(err)
		}
		if got := parOffCaller.Load() - offCaller; got != 0 {
			t.Errorf("%s: %d chunks left the calling goroutine on a one-worker backend", c.name, got)
		}
		if got := runtime.NumGoroutine() - goroutines; got > 0 {
			t.Errorf("%s: %d goroutines outlive the run on a one-worker backend", c.name, got)
		}
		b.Close()
	}
}
