package backend_test

import (
	"math"
	"testing"

	"repro/internal/backend"
	"repro/internal/circuit"
	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/gates"
	"repro/internal/qft"
	"repro/internal/recognize"
	"repro/internal/revlib"
	"repro/internal/rng"
)

// prep returns a circuit opening with unannotated single-qubit structure
// so parity runs start from a non-trivial superposition (the gates run
// gate-level on every backend).
func prep(n uint) *circuit.Circuit {
	c := circuit.New(n)
	for q := uint(0); q < n; q++ {
		c.Append(gates.H(q))
		if q%3 == 0 {
			c.Append(gates.Phase(q, 0.37+float64(q)))
		}
	}
	return c
}

// parityWorkloads are the acceptance circuits: QFT (both bit orders),
// adder, multiplier and Grover, each preceded by gate-level preparation.
func parityWorkloads() []struct {
	name string
	c    *circuit.Circuit
} {
	qftC := prep(10)
	qftC.Extend(qft.Circuit(10))

	noswap := prep(10)
	noswap.Extend(qft.CircuitNoSwap(10))

	add := prep(9)
	revlib.Adder(add, revlib.Seq(0, 4), revlib.Seq(4, 4), 8)

	l := revlib.NewMultiplierLayout(3)
	mul := circuit.New(l.NumQubits())
	for q := uint(0); q < 2*l.M; q++ {
		mul.Append(gates.H(q))
	}
	revlib.Multiplier(mul, l.A, l.B, l.C, l.CarryAnc)

	grover := experiments.GroverGateLevel(8, 0b1011, 2)

	return []struct {
		name string
		c    *circuit.Circuit
	}{
		{"qft", qftC},
		{"qft-noswap", noswap},
		{"adder", add},
		{"multiplier", mul},
		{"grover", grover},
	}
}

// TestDistributedEmulationParity is the acceptance property: the
// distributed emulating backend agrees with the single-node emulating
// backend to 1e-10 on QFT, adder, multiplier and Grover circuits at
// P ∈ {2, 4}, including draw-for-draw equal sample streams.
func TestDistributedEmulationParity(t *testing.T) {
	for _, w := range parityWorkloads() {
		n := w.c.NumQubits

		single, err := backend.New(backend.Target{NumQubits: n, Emulate: recognize.Auto})
		if err != nil {
			t.Fatal(err)
		}
		sres, err := backend.Execute(single, w.c)
		if err != nil {
			t.Fatalf("%s: single-node run: %v", w.name, err)
		}
		if len(sres.Emulated) == 0 {
			t.Fatalf("%s: single-node dispatch emulated nothing: %v", w.name, sres)
		}

		for _, p := range []int{2, 4} {
			dist, err := backend.New(backend.Target{
				NumQubits: n, Kind: backend.Cluster, Nodes: p, Emulate: recognize.Auto})
			if err != nil {
				t.Fatal(err)
			}
			dres, err := backend.Execute(dist, w.c)
			if err != nil {
				t.Fatalf("%s P=%d: distributed run: %v", w.name, p, err)
			}
			if len(dres.Emulated) != len(sres.Emulated) {
				t.Fatalf("%s P=%d: emulated %d regions, single node %d",
					w.name, p, len(dres.Emulated), len(sres.Emulated))
			}
			if d := dist.State().MaxDiff(single.State()); d > 1e-10 {
				t.Fatalf("%s P=%d: states diverge by %g", w.name, p, d)
			}
			a := single.SampleMany(200, rng.New(99))
			b := dist.SampleMany(200, rng.New(99))
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("%s P=%d: sample streams diverge at draw %d: %d vs %d",
						w.name, p, i, a[i], b[i])
				}
			}
		}
	}
}

// TestDistributedQFTRunsAsFourStepFFT asserts, via Result/Stats, that a
// recognised full-register QFT region executes as the four-step
// distributed FFT — and that the emulated executable plans strictly fewer
// placement-remap rounds than the gate-level schedule of the same
// circuit.
func TestDistributedQFTRunsAsFourStepFFT(t *testing.T) {
	c := prep(10)
	c.Extend(qft.Circuit(10))
	for _, p := range []int{2, 4} {
		gateT := backend.Target{NumQubits: 10, Kind: backend.Cluster, Nodes: p, FuseWidth: 4}
		emuT := gateT
		emuT.Emulate = recognize.Auto

		gx, err := backend.Compile(c, gateT)
		if err != nil {
			t.Fatal(err)
		}
		ex, err := backend.Compile(c, emuT)
		if err != nil {
			t.Fatal(err)
		}
		if gx.PlannedRemaps == 0 {
			t.Fatalf("P=%d: gate-level QFT schedule planned no remaps; workload too easy", p)
		}
		if ex.PlannedRemaps >= gx.PlannedRemaps {
			t.Fatalf("P=%d: emulated executable plans %d remaps, gate-level %d",
				p, ex.PlannedRemaps, gx.PlannedRemaps)
		}

		b, err := backend.New(emuT)
		if err != nil {
			t.Fatal(err)
		}
		res, err := b.Run(ex)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, r := range res.Emulated {
			if r.Kind == "qft" && r.Substrate == cluster.SubstrateFourStepFFT {
				found = true
			}
		}
		if !found {
			t.Fatalf("P=%d: QFT region did not execute as the four-step FFT: %+v", p, res.Emulated)
		}
		// The four-step factorisation pays three all-to-all transposes.
		if res.Comm.AllToAlls < 3 {
			t.Fatalf("P=%d: expected >= 3 all-to-alls from the FFT, got %d", p, res.Comm.AllToAlls)
		}
		// The emulated path skips the region's gates entirely.
		if got := b.Stats().Gates; got >= uint64(c.Len()) {
			t.Fatalf("P=%d: emulated run still executed %d of %d gates", p, got, c.Len())
		}
	}
}

// TestExecutableReuseAndShapeCheck compiles once and runs the executable
// on two fresh backends, and verifies shape mismatches are rejected.
func TestExecutableReuseAndShapeCheck(t *testing.T) {
	c := prep(8)
	c.Extend(qft.Circuit(8))
	tgt := backend.Target{NumQubits: 8, FuseWidth: 3, Emulate: recognize.Auto}
	x, err := backend.Compile(c, tgt)
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := backend.New(tgt)
	b2, _ := backend.New(tgt)
	if _, err := b1.Run(x); err != nil {
		t.Fatal(err)
	}
	if _, err := b2.Run(x); err != nil {
		t.Fatal(err)
	}
	if d := b1.State().MaxDiff(b2.State()); d != 0 {
		t.Fatalf("reused executable produced different states: %g", d)
	}
	wrong, _ := backend.New(backend.Target{NumQubits: 8, Kind: backend.Cluster, Nodes: 2})
	if _, err := wrong.Run(x); err == nil {
		t.Fatal("cluster backend accepted a local executable")
	}
}

// TestBackendKindsAgree runs one circuit through the fused, generic and
// sparse kinds and the distributed engine; all must produce the same
// state.
func TestBackendKindsAgree(t *testing.T) {
	c := prep(8)
	c.Extend(qft.Circuit(8))
	ref, err := backend.New(backend.Target{NumQubits: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := backend.Execute(ref, c); err != nil {
		t.Fatal(err)
	}
	for _, k := range []backend.Kind{backend.Generic, backend.Sparse, backend.Cluster} {
		tgt := backend.Target{NumQubits: 8, Kind: k}
		if k == backend.Cluster {
			tgt.Nodes = 4
		}
		b, err := backend.New(tgt)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := backend.Execute(b, c); err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if d := b.State().MaxDiff(ref.State()); d > 1e-10 {
			t.Fatalf("%v diverges from fused by %g", k, d)
		}
	}
}

// TestBaselinesRejectEmulation: the structure-blind baselines exist to
// measure gate-by-gate execution; combining them with emulation dispatch
// must fail loudly instead of silently running the shortcuts.
func TestBaselinesRejectEmulation(t *testing.T) {
	for _, k := range []backend.Kind{backend.Generic, backend.Sparse} {
		if _, err := backend.New(backend.Target{NumQubits: 6, Kind: k, Emulate: recognize.Auto}); err == nil {
			t.Fatalf("%v baseline accepted emulation dispatch", k)
		}
	}
}

// TestDiagonalCostModel checks the cutoff stub: a short diagonal run
// whose support fits the fusion width stays on the gate path by default,
// dispatches when the cutoff is disabled, and produces the same state
// either way.
func TestDiagonalCostModel(t *testing.T) {
	c := circuit.New(6)
	for q := uint(0); q < 6; q++ {
		c.Append(gates.H(q))
	}
	// Six diagonal gates on a 2-qubit support: recognisable (>= MinDiagGates)
	// but far below the dispatch cutoff.
	for i := 0; i < 3; i++ {
		c.Append(gates.Phase(0, 0.2), gates.CR(0, 1, 0.3))
	}

	// The same decision on the single-node and the distributed target.
	for _, def := range []backend.Target{
		{NumQubits: 6, FuseWidth: 4, Emulate: recognize.Auto},
		{NumQubits: 6, Kind: backend.Cluster, Nodes: 2, FuseWidth: 4, Emulate: recognize.Auto},
	} {
		x, err := backend.Compile(c, def)
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range x.Units {
			if u.Op != nil && u.Op.Kind() == "diagonal" {
				t.Fatalf("default cost model dispatched a %d-gate diagonal run", u.Op.GateCount())
			}
		}
		skipped := false
		for _, s := range x.Skipped {
			if s.Name == "diagonal" {
				skipped = true
			}
		}
		if !skipped {
			t.Fatalf("cost-model drop not recorded in Skipped: %+v", x.Skipped)
		}

		forced := def
		forced.DiagMinGates = -1
		xf, err := backend.Compile(c, forced)
		if err != nil {
			t.Fatal(err)
		}
		dispatched := false
		for _, u := range xf.Units {
			if u.Op != nil && u.Op.Kind() == "diagonal" {
				dispatched = true
			}
		}
		if !dispatched {
			t.Fatal("disabled cutoff still dropped the diagonal run")
		}

		b1, _ := backend.New(def)
		b2, _ := backend.New(forced)
		if _, err := b1.Run(x); err != nil {
			t.Fatal(err)
		}
		if _, err := b2.Run(xf); err != nil {
			t.Fatal(err)
		}
		if d := b1.State().MaxDiff(b2.State()); d > 1e-12 {
			t.Fatalf("cost-model choice changed the state by %g", d)
		}
	}
}

// TestBackendMeasurement drives Probability/Measure/Sample through both a
// local and a distributed backend on a GHZ state.
func TestBackendMeasurement(t *testing.T) {
	ghz := qft.Entangler(6)
	for _, tgt := range []backend.Target{
		{NumQubits: 6},
		{NumQubits: 6, Kind: backend.Cluster, Nodes: 2},
	} {
		b, err := backend.New(tgt)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := backend.Execute(b, ghz); err != nil {
			t.Fatal(err)
		}
		if p := b.Probability(3); math.Abs(p-0.5) > 1e-12 {
			t.Fatalf("%v: GHZ P(q3=1) = %v", tgt.Kind, p)
		}
		src := rng.New(5)
		bit := b.Measure(0, src)
		for q := uint(1); q < 6; q++ {
			if got := b.Probability(q); math.Abs(got-float64(bit)) > 1e-12 {
				t.Fatalf("%v: after measuring %d, P(q%d) = %v", tgt.Kind, bit, q, got)
			}
		}
		if s := b.Sample(src); s != bit*(1<<6-1) {
			t.Fatalf("%v: collapsed GHZ sampled %b", tgt.Kind, s)
		}
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
