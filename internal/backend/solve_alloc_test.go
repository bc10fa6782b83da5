package backend_test

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/backend"
	"repro/internal/experiments"
	"repro/internal/qasm"
	"repro/internal/recognize"
	"repro/internal/rng"
)

// TestSolveAllocationBudget pins what one served solve of the benchmark's
// gate-sweep shape — parse, Compile, Reset, Run, SampleMany(1024) of the
// 20-qubit 300-gate circuit at Fused w=4 on a warm backend — leaves on the
// heap. The collector never runs inside that workload's ten seconds, so
// its peak RSS is the state plus solves x this number; the budget keeps
// the wider plans of the AVX2-priced planner (one 4 KiB matrix per w=4
// block is intrinsic) below what the narrow plans used to allocate
// (485 KiB).
func TestSolveAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 20-qubit circuit twice")
	}
	var text strings.Builder
	if err := qasm.Write(&text, experiments.GateSweep(20, 10, 3)); err != nil {
		t.Fatal(err)
	}
	target := backend.Target{NumQubits: 20, Kind: backend.Fused, FuseWidth: 4, Emulate: recognize.Off, Workers: 2}
	b, err := backend.New(target)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	solve := func() {
		c, err := qasm.ParseString(text.String())
		if err != nil {
			t.Fatal(err)
		}
		x, err := backend.Compile(c, target)
		if err != nil {
			t.Fatal(err)
		}
		b.Reset()
		if _, err := b.Run(x); err != nil {
			t.Fatal(err)
		}
		b.SampleMany(1024, rng.New(1))
	}
	solve() // the worker pool, kernel scratch and sampling buffers are the backend's
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	solve()
	runtime.ReadMemStats(&after)
	const budget = 360 << 10
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("one solve allocated %d B", got)
	if got > budget {
		t.Errorf("one solve allocated %d B, budget %d", got, budget)
	}
}
