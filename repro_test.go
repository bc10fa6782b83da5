package repro_test

import (
	"math"
	"testing"

	"repro"
	"repro/internal/gates"
	"repro/internal/qft"
)

// TestOpenFacade drives the unified entrypoint: one constructor, one
// Target, for the fused simulator and the distributed engine, all running
// the same compiled executable shape and reporting a uniform Result.
func TestOpenFacade(t *testing.T) {
	const n = 9
	circ := repro.NewCircuit(n)
	for q := uint(0); q < n; q++ {
		circ.Append(gates.H(q))
	}
	circ.Extend(qft.Circuit(n))

	ref, err := repro.Open(repro.Target{NumQubits: n})
	if err != nil {
		t.Fatal(err)
	}
	x, err := repro.Compile(circ, ref.Target())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Run(x); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		t    repro.Target
	}{
		{"fusion", repro.Target{NumQubits: n, FuseWidth: 4}},
		{"emulating", repro.Target{NumQubits: n, Emulate: repro.EmulateAuto}},
		{"distributed", repro.Target{NumQubits: n, Nodes: 4, FuseWidth: 3}},
		{"distributed-emulating", repro.Target{NumQubits: n, Nodes: 4, Emulate: repro.EmulateAuto}},
		{"distributed-annotated", repro.Target{NumQubits: n, Nodes: 4, Emulate: repro.EmulateAnnotated}},
	} {
		b, err := repro.Open(tc.t)
		if err != nil {
			t.Fatalf("%s: Open failed: %v", tc.name, err)
		}
		bx, err := repro.Compile(circ, b.Target())
		if err != nil {
			t.Fatalf("%s: Compile failed: %v", tc.name, err)
		}
		res, err := b.Run(bx)
		if err != nil {
			t.Fatalf("%s: Run failed: %v", tc.name, err)
		}
		if res.TotalGates != circ.Len() {
			t.Fatalf("%s: result covers %d gates, circuit has %d", tc.name, res.TotalGates, circ.Len())
		}
		if d := b.State().MaxDiff(ref.State()); d > 1e-10 {
			t.Fatalf("%s: diverges from the reference backend by %g", tc.name, d)
		}
		if err := b.Close(); err != nil {
			t.Fatalf("%s: Close failed: %v", tc.name, err)
		}
	}

	// The auto target: compiled first, then the backend opened for the
	// executable's resolved shape.
	ax, err := repro.Compile(circ, repro.Target{NumQubits: n, Auto: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := repro.OpenFor(ax)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if res, err := b.Run(ax); err != nil || res.Selection == nil {
		t.Fatalf("auto: Run = %v, %v; want a selection report", res, err)
	}
	if d := b.State().MaxDiff(ref.State()); d > 1e-10 {
		t.Fatalf("auto: diverges from the reference backend by %g", d)
	}
}

// TestOpenDistributedEmulationNoLongerErrors pins the acceptance
// criterion directly: the distributed backend accepts every emulation
// mode and emulates the QFT region.
func TestOpenDistributedEmulationNoLongerErrors(t *testing.T) {
	for _, mode := range []repro.EmulateMode{repro.EmulateOff, repro.EmulateAnnotated, repro.EmulateAuto} {
		b, err := repro.Open(repro.Target{NumQubits: 10, Nodes: 2, Emulate: mode})
		if err != nil {
			t.Fatalf("Open(Target{NumQubits: 10, Nodes: 2, Emulate: %v}) errored: %v", mode, err)
		}
		res, err := repro.Compile(qft.Circuit(10), b.Target())
		if err != nil {
			t.Fatal(err)
		}
		r, err := b.Run(res)
		if err != nil {
			t.Fatal(err)
		}
		if mode != repro.EmulateOff && len(r.Emulated) == 0 {
			t.Fatalf("mode %v emulated nothing", mode)
		}
	}
}

// TestCircuitFacade builds and runs a circuit through the facade types.
func TestCircuitFacade(t *testing.T) {
	c := repro.NewCircuit(3)
	c.Append(gates.H(0), gates.CNOT(0, 1), gates.Toffoli(0, 1, 2))
	b, err := repro.Open(repro.Target{NumQubits: 3})
	if err != nil {
		t.Fatal(err)
	}
	x, err := repro.Compile(c, b.Target())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Run(x); err != nil {
		t.Fatal(err)
	}
	p := b.State().Probabilities()
	if math.Abs(p[0]-0.5) > 1e-12 || math.Abs(p[7]-0.5) > 1e-12 {
		t.Fatalf("GHZ-like state wrong: %v", p)
	}
}
