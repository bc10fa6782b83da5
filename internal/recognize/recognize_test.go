package recognize_test

import (
	"math"
	"strings"
	"testing"

	"repro/internal/backend"
	"repro/internal/circuit"
	"repro/internal/experiments"
	"repro/internal/gates"
	"repro/internal/qft"
	"repro/internal/recognize"
	"repro/internal/revlib"
	"repro/internal/rng"
	"repro/internal/statevec"
)

const eps = 1e-10

// runBoth executes c gate-level and through an emulation plan at the given
// mode on clones of one random state, returning the max amplitude
// difference and the plan.
func runBoth(t *testing.T, c *circuit.Circuit, mode recognize.Mode, seed uint64) (float64, *recognize.Plan) {
	t.Helper()
	src := rng.New(seed)
	init := statevec.NewRandom(c.NumQubits, src)
	ref := init.Clone()
	c.Run(ref)

	plan := recognize.Analyze(c, recognize.DefaultOptions(mode))
	got := init.Clone()
	runPlan(c, plan, got)
	return ref.MaxDiff(got), plan
}

// runPlan executes c through p on st: recognised ops apply their shortcut,
// the gates between them run one by one.
func runPlan(c *circuit.Circuit, p *recognize.Plan, st *statevec.State) {
	for _, seg := range p.Segments {
		if seg.Op != nil {
			seg.Op.Apply(st)
			continue
		}
		for _, g := range c.Gates[seg.Lo:seg.Hi] {
			st.ApplyGate(g)
		}
	}
}

// requireOps asserts the plan recognised exactly the given kind counts.
func requireOps(t *testing.T, p *recognize.Plan, want map[string]int) {
	t.Helper()
	st := p.Stats()
	for k, n := range want {
		if st.ByKind[k] != n {
			t.Errorf("recognised %d %s ops, want %d (plan: %v)\n%s", st.ByKind[k], k, n, st, p.Describe())
		}
	}
}

// stripRegions drops every annotation so only the pattern matchers can act.
func stripRegions(c *circuit.Circuit) *circuit.Circuit {
	c.Regions = nil
	return c
}

// shiftedInto embeds src's gates into a register of n qubits at offset pos.
func shiftedInto(n uint, src *circuit.Circuit, pos uint) *circuit.Circuit {
	c := circuit.New(n)
	for _, g := range src.Gates {
		ng := g
		ng.Target += pos
		if len(g.Controls) > 0 {
			cs := make([]uint, len(g.Controls))
			for j, q := range g.Controls {
				cs[j] = q + pos
			}
			ng.Controls = cs
		}
		c.Append(ng)
	}
	return c
}

func TestAnnotatedQFTVariants(t *testing.T) {
	for _, tc := range []struct {
		name string
		c    *circuit.Circuit
		kind string
	}{
		{"qft", qft.Circuit(7), "qft"},
		{"qft-noswap", qft.CircuitNoSwap(7), "qft"},
		{"iqft (dagger remap)", qft.InverseCircuit(7), "qft"},
		{"iqft-noswap (dagger remap)", qft.CircuitNoSwap(7).Dagger(), "qft"},
	} {
		d, plan := runBoth(t, tc.c, recognize.Annotated, 11)
		if d > eps {
			t.Errorf("%s: annotated emulation diverges by %g", tc.name, d)
		}
		requireOps(t, plan, map[string]int{tc.kind: 1})
		st := plan.Stats()
		if st.GatesEmulated != tc.c.Len() {
			t.Errorf("%s: emulated %d of %d gates", tc.name, st.GatesEmulated, tc.c.Len())
		}
	}
}

func TestAutoMatchesStrippedQFTVariants(t *testing.T) {
	for _, tc := range []struct {
		name string
		c    *circuit.Circuit
	}{
		{"qft", stripRegions(qft.Circuit(6))},
		{"qft-noswap", stripRegions(qft.CircuitNoSwap(6))},
		{"iqft", stripRegions(qft.InverseCircuit(6))},
		{"iqft-noswap", stripRegions(qft.CircuitNoSwap(6).Dagger())},
		{"qft at offset", shiftedInto(9, stripRegions(qft.Circuit(5)), 2)},
		{"iqft at offset", shiftedInto(9, stripRegions(qft.InverseCircuit(5)), 3)},
	} {
		d, plan := runBoth(t, tc.c, recognize.Auto, 7)
		if d > eps {
			t.Errorf("%s: matched emulation diverges by %g", tc.name, d)
		}
		requireOps(t, plan, map[string]int{"qft": 1})
		if st := plan.Stats(); st.GatesEmulated != tc.c.Len() {
			t.Errorf("%s: emulated %d of %d gates\n%s", tc.name, st.GatesEmulated, tc.c.Len(), plan.Describe())
		}
	}
}

func TestAutoMatchesStrippedAdder(t *testing.T) {
	c := circuit.New(9)
	revlib.Adder(c, revlib.Seq(0, 4), revlib.Seq(4, 4), 8)
	stripRegions(c)
	// Random states cover dirty carry ancillas too: the matched shortcut
	// must be the exact permutation (b += a + carry).
	for seed := uint64(1); seed <= 3; seed++ {
		d, plan := runBoth(t, c, recognize.Auto, seed)
		if d > eps {
			t.Fatalf("adder emulation diverges by %g (seed %d)", d, seed)
		}
		requireOps(t, plan, map[string]int{"add": 1})
	}
}

func TestAutoMatchesStrippedSubtractor(t *testing.T) {
	c := circuit.New(7)
	revlib.Subtractor(c, revlib.Seq(0, 3), revlib.Seq(3, 3), 6)
	stripRegions(c)
	d, plan := runBoth(t, c, recognize.Auto, 5)
	if d > eps {
		t.Fatalf("subtractor emulation diverges by %g\n%s", d, plan.Describe())
	}
	// The X conjugation stays gate-level; the inner adder is matched.
	requireOps(t, plan, map[string]int{"add": 1})
}

func TestAutoMatchesStrippedMultiplier(t *testing.T) {
	l := revlib.NewMultiplierLayout(3)
	c := stripRegions(revlib.BuildMultiplier(l))
	for seed := uint64(1); seed <= 3; seed++ {
		d, plan := runBoth(t, c, recognize.Auto, seed)
		if d > eps {
			t.Fatalf("multiplier emulation diverges by %g (seed %d)\n%s", d, seed, plan.Describe())
		}
		requireOps(t, plan, map[string]int{"mul": 1})
		if st := plan.Stats(); st.GatesEmulated != c.Len() {
			t.Fatalf("emulated %d of %d gates\n%s", st.GatesEmulated, c.Len(), plan.Describe())
		}
	}
}

func TestAnnotatedMultiplierAndDivider(t *testing.T) {
	mul := revlib.BuildMultiplier(revlib.NewMultiplierLayout(3))
	div := revlib.BuildDivider(revlib.NewDividerLayout(2))
	for _, tc := range []struct {
		name string
		c    *circuit.Circuit
		kind string
	}{
		{"mul", mul, "mul"},
		{"div", div, "div"},
	} {
		for seed := uint64(1); seed <= 3; seed++ {
			d, plan := runBoth(t, tc.c, recognize.Annotated, seed)
			if d > eps {
				t.Fatalf("%s: annotated emulation diverges by %g (seed %d)\n%s",
					tc.name, d, seed, plan.Describe())
			}
			requireOps(t, plan, map[string]int{tc.kind: 1})
		}
	}
}

func TestAutoMatchesPhaseFlipOracle(t *testing.T) {
	// Grover-style oracle: X-conjugated multi-controlled Z marking |5>.
	n := uint(6)
	marked := uint64(5)
	c := circuit.New(n)
	for q := uint(0); q < n; q++ {
		if (marked>>q)&1 == 0 {
			c.Append(gates.X(q))
		}
	}
	controls := make([]uint, n-1)
	for i := range controls {
		controls[i] = uint(i) + 1
	}
	c.Append(gates.Z(0).WithControls(controls...))
	for q := uint(0); q < n; q++ {
		if (marked>>q)&1 == 0 {
			c.Append(gates.X(q))
		}
	}
	d, plan := runBoth(t, c, recognize.Auto, 13)
	if d > eps {
		t.Fatalf("phase-flip emulation diverges by %g\n%s", d, plan.Describe())
	}
	requireOps(t, plan, map[string]int{"phaseflip": 1})
	if st := plan.Stats(); st.GatesEmulated != c.Len() {
		t.Fatalf("emulated %d of %d gates", st.GatesEmulated, c.Len())
	}
}

func TestAnnotatedGroverIterations(t *testing.T) {
	// experiments.GroverGateLevel annotates its oracle as a phaseflip and
	// its diffusion as a reflect-uniform; both must lower and stay exact
	// (the diffusion check exercises the Householder shortcut).
	c := experiments.GroverGateLevel(7, 5, 2)
	d, plan := runBoth(t, c, recognize.Annotated, 31)
	if d > eps {
		t.Fatalf("grover emulation diverges by %g\n%s", d, plan.Describe())
	}
	requireOps(t, plan, map[string]int{"phaseflip": 2, "reflect": 2})
}

func TestAutoMatchesDiagonalRun(t *testing.T) {
	c := circuit.New(6)
	c.Append(gates.T(0), gates.CR(1, 2, 0.7), gates.Rz(3, 1.1), gates.S(1),
		gates.CZ(0, 3), gates.Phase(2, -0.4))
	d, plan := runBoth(t, c, recognize.Auto, 17)
	if d > eps {
		t.Fatalf("diagonal-run emulation diverges by %g", d)
	}
	requireOps(t, plan, map[string]int{"diagonal": 1})
}

func TestLyingAnnotationFallsBackToGates(t *testing.T) {
	// Annotate an X-run as a QFT: verification must reject it and the
	// circuit must still run correctly at gate level.
	c := circuit.New(4)
	c.Append(gates.X(0), gates.X(1), gates.X(2), gates.X(3))
	c.Annotate(circuit.Region{Name: "qft", Args: []uint64{0, 4}, Lo: 0, Hi: 4})
	d, plan := runBoth(t, c, recognize.Annotated, 19)
	if d > eps {
		t.Fatalf("fallback run diverges by %g", d)
	}
	if st := plan.Stats(); st.Ops != 0 || st.Skipped != 1 {
		t.Fatalf("lying annotation was not rejected: %v", st)
	}
}

func TestNaNDiagonalRunFailsVerification(t *testing.T) {
	// A NaN angle inside a diagonal run folds into a NaN table entry; the
	// check must reject the run rather than compare NaN as "not larger"
	// than its tolerance.
	c := circuit.New(6)
	c.Append(gates.T(0), gates.CR(1, 2, 0.7), gates.Rz(3, math.NaN()), gates.S(1),
		gates.CZ(0, 3), gates.Phase(2, -0.4))
	plan := recognize.Analyze(c, recognize.DefaultOptions(recognize.Auto))
	if st := plan.Stats(); st.Ops != 0 || len(plan.Skipped) != 1 {
		t.Fatalf("NaN diagonal run was not rejected: %v\n%s", st, plan.Describe())
	}
	if sk := plan.Skipped[0]; sk.Name != "diagonal" || !strings.Contains(sk.Reason, "unitary verification failed") {
		t.Fatalf("skipped %s for %q, want the diagonal run for failed verification", sk.Name, sk.Reason)
	}
}

func TestWrongAngleLadderIsNotMatched(t *testing.T) {
	// A QFT ladder with one wrong rotation must not be recognised.
	c := stripRegions(qft.Circuit(5))
	corrupted := -1
	for i, g := range c.Gates {
		if len(g.Controls) == 1 {
			c.Gates[i] = gates.CR(g.Controls[0], g.Target, 0.123)
			corrupted = i
			break
		}
	}
	d, plan := runBoth(t, c, recognize.Auto, 23)
	if d > eps {
		t.Fatalf("near-QFT run diverges by %g", d)
	}
	// Untouched sub-ladders may legitimately be recognised as smaller
	// QFTs, but no Fourier op may claim the corrupted rotation itself.
	for _, op := range plan.Ops() {
		if op.Kind() == "qft" && op.Lo <= corrupted && corrupted < op.Hi {
			t.Fatalf("wrong-angle rotation at %d absorbed into %v\n%s", corrupted, op, plan.Describe())
		}
	}
}

func TestEmbeddedShortcutsInRandomContext(t *testing.T) {
	// A realistic mixed workload: random gates, then a QFT, more random
	// gates, an adder, then a diagonal tail. Auto mode must stay exact.
	n := uint(9)
	src := rng.New(99)
	c := circuit.New(n)
	randomLayer := func(k int) {
		for i := 0; i < k; i++ {
			q := uint(src.Intn(int(n)))
			o := uint(src.Intn(int(n)))
			switch src.Intn(4) {
			case 0:
				c.Append(gates.H(q))
			case 1:
				c.Append(gates.Rx(q, src.Float64()*3))
			case 2:
				if o != q {
					c.Append(gates.CNOT(o, q))
				} else {
					c.Append(gates.X(q))
				}
			default:
				c.Append(gates.T(q))
			}
		}
	}
	randomLayer(12)
	c.Extend(shiftedInto(n, stripRegions(qft.Circuit(5)), 1))
	randomLayer(9)
	adder := circuit.New(n)
	revlib.Adder(adder, revlib.Seq(0, 4), revlib.Seq(4, 4), 8)
	c.Extend(stripRegions(adder))
	for q := uint(0); q+1 < n; q++ {
		c.Append(gates.CR(q, q+1, 0.3+float64(q)))
	}
	for seed := uint64(1); seed <= 4; seed++ {
		d, plan := runBoth(t, c, recognize.Auto, seed)
		if d > eps {
			t.Fatalf("mixed workload diverges by %g (seed %d)\n%s", d, seed, plan.Describe())
		}
		requireOps(t, plan, map[string]int{"qft": 1, "add": 1, "diagonal": 1})
	}
}

func TestTargetEmulateEndToEnd(t *testing.T) {
	// The Target.Emulate wiring: deep QFT through the fused backend with
	// block fusion enabled under emulation dispatch.
	n := uint(8)
	c := circuit.New(n)
	for i := 0; i < 3; i++ {
		c.Extend(qft.Circuit(n))
	}
	src := rng.New(3)
	init := statevec.NewRandom(n, src)
	ref := init.Clone()
	c.Run(ref)
	for _, mode := range []recognize.Mode{recognize.Annotated, recognize.Auto} {
		b, err := backend.New(backend.Target{NumQubits: n, FuseWidth: 4, Emulate: mode})
		if err != nil {
			t.Fatal(err)
		}
		b.State().CopyFrom(init)
		x, err := backend.Compile(c, b.Target())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.Run(x); err != nil {
			t.Fatal(err)
		}
		if d := ref.MaxDiff(b.State()); d > eps {
			t.Fatalf("mode %v: emulated run diverges by %g", mode, d)
		}
	}
	plan := recognize.Analyze(c, recognize.DefaultOptions(recognize.Annotated))
	if st := plan.Stats(); st.ByKind["qft"] != 3 || st.GatesEmulated != c.Len() {
		t.Fatalf("deep QFT not fully recognised: %v", st)
	}
}

func TestOffModeIsGateLevel(t *testing.T) {
	c := qft.Circuit(5)
	plan := recognize.Analyze(c, recognize.DefaultOptions(recognize.Off))
	if st := plan.Stats(); st.Ops != 0 {
		t.Fatalf("Off mode recognised ops: %v", st)
	}
	d, _ := runBoth(t, c, recognize.Off, 29)
	if d > eps {
		t.Fatalf("off-mode run diverges by %g", d)
	}
}

func TestWideRegistersStayGateLevel(t *testing.T) {
	// A register wider than 64 qubits cannot use the single-word qubit
	// masks the matchers rely on; recognition must decline cleanly (the
	// whole circuit stays one gate-level segment) instead of building
	// ops with silently truncated masks.
	c := circuit.New(100)
	c.Append(gates.H(70), gates.CNOT(70, 71))
	c.Annotate(circuit.Region{Name: "phaseflip", Args: []uint64{1, 70, 1}, Lo: 0, Hi: 2})
	plan := recognize.Analyze(c, recognize.DefaultOptions(recognize.Auto))
	if st := plan.Stats(); st.Ops != 0 {
		t.Fatalf("recognised ops on a 100-qubit register: %v", st)
	}
	if len(plan.Segments) != 1 || plan.Segments[0].Op != nil {
		t.Fatalf("expected one gate-level segment, got %+v", plan.Segments)
	}
}
