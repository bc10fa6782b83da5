package backend_test

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/circuit"
	"repro/internal/gates"
	"repro/internal/qft"
	"repro/internal/recognize"
)

// serveArtifact mirrors the workload of the serve experiment (qemu-bench
// -experiment serve): an n-qubit H+phase prep layer feeding a recognised QFT,
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

// verifyAllocBudget bounds what VerifyExecutable may allocate on the
// serveArtifact(18) executable: the structural checks walk the units in
// place, and what they allocate does not grow with the state.
const verifyAllocBudget = 32

// TestVerifyOverheadBudget guards what wiring the verifier into warm
// starts costs, by what is deterministic about it: on the serve
// experiment's workload VerifyExecutable allocates a bounded number of objects and
// leaves the executable byte-identical under Encode. The two timings it
// used to compare — decode alone against decode+verify, a ratio of two
// wall clocks on a shared box — are logged in the host-body pass, asserted
// nowhere.
func TestVerifyOverheadBudget(t *testing.T) {
	data := serveArtifact(t, 18)
	x, err := backend.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := backend.VerifyExecutable(x); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > verifyAllocBudget {
		t.Errorf("VerifyExecutable allocates %v objects, budget %d", allocs, verifyAllocBudget)
	}
	again, err := x.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, data) {
		t.Error("the executable encodes differently after VerifyExecutable")
	}
	if testing.Short() || !hostPass {
		return
	}
	decode := testing.Benchmark(BenchmarkDecode)
	decodeVerify := testing.Benchmark(BenchmarkDecodeVerify)
	t.Logf("decode %v, decode+verify %v (%.1f%% overhead), verify allocates %v objects",
		time.Duration(decode.NsPerOp()), time.Duration(decodeVerify.NsPerOp()),
		100*float64(decodeVerify.NsPerOp()-decode.NsPerOp())/float64(decode.NsPerOp()), allocs)
}
