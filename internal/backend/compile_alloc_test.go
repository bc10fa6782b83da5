package backend_test

import (
	"runtime"
	"testing"

	"repro/internal/backend"
	"repro/internal/circuit"
	"repro/internal/experiments"
)

// TestAutoCompileAllocationBudget holds one cold auto compile of the n=14
// adder/QFT sandwich to what "profile prices, compile materialises once"
// implies: no single allocation of 1 MiB or more — a 2^8 x 2^8 block
// unitary is exactly that, and the profile pass used to build one per
// 8-wide candidate run per re-planning level — and under 4 MiB in total
// (the eager planner allocated about 43 MiB here; what is left is mostly
// recognition's FFT and diagonal tables).
func TestAutoCompileAllocationBudget(t *testing.T) {
	var c *circuit.Circuit
	for _, w := range experiments.CompileAutoWorkloads() {
		if w.Name == "adder-qft-n14" {
			c = w.Circuit
		}
	}
	if c == nil {
		t.Fatal("adder-qft-n14 is no longer among the compile workloads")
	}
	compile := func() {
		if _, err := backend.Compile(c, backend.Target{Auto: true}); err != nil {
			t.Fatal(err)
		}
	}
	compile() // lazy tables and one-time initialisation are not the compile's

	// The heap profile keys its buckets by (stack, object size), so with
	// every allocation sampled a bucket's bytes/objects is an exact size.
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	type bucket struct {
		stack [32]uintptr
		size  int64
	}
	snapshot := func() (map[bucket]int64, uint64) {
		runtime.GC() // profile records are published by a completed cycle
		runtime.GC()
		n, _ := runtime.MemProfile(nil, true)
		recs := make([]runtime.MemProfileRecord, n+64)
		n, ok := runtime.MemProfile(recs, true)
		if !ok {
			t.Fatal("heap profile grew while it was being read")
		}
		objects := make(map[bucket]int64, n)
		for _, r := range recs[:n] {
			if r.AllocObjects > 0 {
				objects[bucket{r.Stack0, r.AllocBytes / r.AllocObjects}] += r.AllocObjects
			}
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return objects, ms.TotalAlloc
	}

	before, bytesBefore := snapshot()
	compile()
	after, bytesAfter := snapshot()

	const mib = 1 << 20
	if total := bytesAfter - bytesBefore; total > 4*mib {
		t.Errorf("one auto compile allocated %d B, budget %d", total, 4*mib)
	}
	for b, objects := range after {
		if grew := objects - before[b]; grew > 0 && b.size >= mib {
			f, _ := runtime.CallersFrames(b.stack[:]).Next()
			t.Errorf("%d allocation(s) of %d B each from %s", grew, b.size, f.Function)
		}
	}
}
