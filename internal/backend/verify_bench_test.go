package backend_test

import (
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/circuit"
	"repro/internal/gates"
	"repro/internal/qft"
	"repro/internal/recognize"
)

// serveArtifact mirrors the BENCH_serve workload (qemu-bench -experiment
// serve): an n-qubit H+phase prep layer feeding a recognised QFT,
// compiled at fuse width 4 — the artifact shape a warm-starting cache
// decodes.
func serveArtifact(tb testing.TB, n uint) []byte {
	tb.Helper()
	c := circuit.New(n)
	for q := uint(0); q < n; q++ {
		c.Append(gates.H(q))
		if q%3 == 0 {
			c.Append(gates.Phase(q, 0.37+float64(q)))
		}
	}
	c.Extend(qft.Circuit(n))
	x, err := backend.Compile(c, backend.Target{NumQubits: n, FuseWidth: 4, Emulate: recognize.Auto})
	if err != nil {
		tb.Fatal(err)
	}
	data, err := x.Encode()
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// BenchmarkDecode is the warm-start baseline: decode alone.
func BenchmarkDecode(b *testing.B) {
	data := serveArtifact(b, 18)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := backend.Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeVerify is what WarmStart and the serve admission path
// actually pay: decode plus the structural verifier.
func BenchmarkDecodeVerify(b *testing.B) {
	data := serveArtifact(b, 18)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x, err := backend.Decode(data)
		if err != nil {
			b.Fatal(err)
		}
		if err := backend.VerifyExecutable(x); err != nil {
			b.Fatal(err)
		}
	}
}

// TestVerifyOverheadBudget is the latency guard: on the BENCH_serve
// workload, decode+verify must stay within 10% of decode alone, so
// wiring the verifier into warm starts does not move warm-start latency.
// Best-of-N minima are compared — the minimum is the stable estimator of
// a deterministic code path's cost under scheduler noise.
func TestVerifyOverheadBudget(t *testing.T) {
	if testing.Short() || purePass {
		t.Skip("timing guard skipped in -short mode and in the pure-Go second pass")
	}
	data := serveArtifact(t, 18)

	best := func(fn func()) time.Duration {
		min := time.Duration(1<<63 - 1)
		for trial := 0; trial < 5; trial++ {
			r := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					fn()
				}
			})
			if d := time.Duration(r.NsPerOp()); d < min {
				min = d
			}
		}
		return min
	}

	decode := best(func() {
		if _, err := backend.Decode(data); err != nil {
			t.Fatal(err)
		}
	})
	decodeVerify := best(func() {
		x, err := backend.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		if err := backend.VerifyExecutable(x); err != nil {
			t.Fatal(err)
		}
	})

	limit := decode + decode/10
	if decodeVerify > limit {
		t.Fatalf("decode+verify costs %v, budget is decode %v + 10%% = %v", decodeVerify, decode, limit)
	}
	t.Logf("decode %v, decode+verify %v (%.1f%% overhead)",
		decode, decodeVerify, 100*float64(decodeVerify-decode)/float64(decode))
}
