package backend_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/backend"
	"repro/internal/circuit"
	"repro/internal/cluster"
	"repro/internal/gates"
	"repro/internal/noise"
	"repro/internal/qft"
	"repro/internal/recognize"
	"repro/internal/revlib"
	"repro/internal/rng"
	"repro/internal/statevec"
)

// fourierShape is one of the ways a Fourier op can vary: direction, swaps,
// field at bit 0 or above, full register or narrower.
type fourierShape struct {
	inverse, swaps, above, full bool
}

func (s fourierShape) String() string {
	return fmt.Sprintf("inverse=%v swaps=%v above=%v full=%v", s.inverse, s.swaps, s.above, s.full)
}

// appendRotations appends a random one-qubit rotation on every qubit.
func appendRotations(c *circuit.Circuit, src *rng.Source) {
	for q := uint(0); q < c.NumQubits; q++ {
		c.Append(gates.Ry(q, src.Float64()*2), gates.Rz(q, src.Float64()*3))
	}
}

// appendReflection appends the Grover diffusion H·X·MCZ·X·H on the whole
// register, annotated as the reflection about the uniform state.
func appendReflection(c *circuit.Circuit) {
	n := c.NumQubits
	lo := c.Len()
	args := []uint64{uint64(n)}
	controls := make([]uint, 0, n-1)
	for q := uint(0); q < n; q++ {
		c.Append(gates.H(q), gates.X(q))
		args = append(args, uint64(q))
		if q > 0 {
			controls = append(controls, q)
		}
	}
	c.Append(gates.Z(0).WithControls(controls...))
	for q := uint(0); q < n; q++ {
		c.Append(gates.X(q), gates.H(q))
	}
	c.Annotate(circuit.Region{Name: "reflect-uniform", Args: args, Lo: lo, Hi: c.Len()})
}

// appendDiagonalRun appends a phase run the matcher finds as one
// diagonal op: Rz, T and CR gates over a random support of four or more
// qubits, longer than recognize.DefaultDiagCutoffGates.
func appendDiagonalRun(c *circuit.Circuit, src *rng.Source) {
	support := src.Perm(int(c.NumQubits))
	support = support[:4+src.Intn(len(support)-3)]
	for range 4 {
		for i, q := range support {
			c.Append(gates.Rz(uint(q), src.Float64()), gates.T(uint(q)))
			if i > 0 {
				c.Append(gates.CR(uint(support[i-1]), uint(q), src.Float64()))
			}
		}
	}
}

// fourierField returns the op of one shape on a random field of an
// n-qubit register.
func fourierField(src *rng.Source, n uint, s fourierShape) *circuit.Circuit {
	pos, w := uint(0), n
	if !s.full {
		w = 2 + uint(src.Intn(int(n)-2))
		if s.above {
			pos = 1 + uint(src.Intn(int(n-w)))
		}
	}
	f := qft.Field(n, pos, w, s.swaps)
	if s.inverse {
		f = f.Dagger()
	}
	return f
}

// relabelCircuit is Fourier ops of every shape interleaved with the other
// units a one-node placement must survive: rotation and entangler gate
// units, diagonal runs, reflections and an adder. Each Fourier op is
// drawn alone or as a sandwich — the op, a rotation layer, and the
// inverse of the op's field with its own swap choice. Every segment ends
// in a zero-probability flip, so the same circuit carries a trajectory
// batch's noise points without losing an op. It returns the shapes of the
// Fourier ops it drew.
func relabelCircuit(src *rng.Source, n uint, segments int) (*circuit.Circuit, []fourierShape) {
	c := circuit.New(n)
	appendRotations(c, src)
	var shapes []fourierShape
	draw := func() fourierShape {
		s := fourierShape{inverse: src.Intn(2) == 0, swaps: src.Intn(2) == 0, full: src.Intn(3) == 0}
		s.above = !s.full && src.Intn(2) == 0
		return s
	}
	mark := func() {
		c.AttachNoise(c.Len()-1, c.Gates[c.Len()-1].Target, circuit.Channel{Kind: circuit.FlipX, P: 0})
	}
	for i := 0; i < segments; i++ {
		if i%2 == 0 {
			s := draw()
			f := fourierField(src, n, s)
			c.Extend(f)
			shapes = append(shapes, s)
			if src.Intn(2) == 0 {
				// The sandwich: the same field back, swaps drawn afresh.
				mark()
				appendRotations(c, src)
				region := f.Regions[0]
				pos, w := uint(region.Args[0]), uint(region.Args[1])
				back := fourierShape{inverse: !s.inverse, swaps: src.Intn(2) == 0, above: s.above, full: s.full}
				g := qft.Field(n, pos, w, back.swaps)
				if back.inverse {
					g = g.Dagger()
				}
				c.Extend(g)
				shapes = append(shapes, back)
			}
			mark()
			continue
		}
		switch src.Intn(4) {
		case 0:
			appendRotations(c, src)
			for q := uint(src.Intn(2)); q+1 < n; q += 2 {
				c.Append(gates.CNOT(q, q+1))
			}
		case 1:
			appendDiagonalRun(c, src)
		case 2:
			appendReflection(c)
		default:
			w := (n - 1) / 2
			revlib.Adder(c, revlib.Seq(0, w), revlib.Seq(w, w), 2*w)
		}
		mark()
	}
	return c, shapes
}

// TestRelabelledFourierParity runs generated circuits of Fourier ops of
// every shape, interleaved with gate units, diagonal runs, reflections
// and adders, on one, two and four nodes, unit by unit with random reads
// between the units — State, SampleMany, Probability and a CopyState the
// rest of the run continues on — and a noisy trajectory batch after.
// Whatever order a Fourier op left in the placement, every read must see
// the state of the circuit run gate by gate, to 1e-10, and draw exactly
// what its canonical-state sampler draws. Every one-node run must report
// no communication.
func TestRelabelledFourierParity(t *testing.T) {
	const n = 7
	seen := map[fourierShape]bool{}
	for seed := uint64(0); seed < 8; seed++ {
		src := rng.New(700 + seed)
		c, shapes := relabelCircuit(src, n, 9)
		for _, s := range shapes {
			seen[s] = true
		}
		for _, p := range []int{1, 2, 4} {
			name := fmt.Sprintf("seed=%d P=%d", seed, p)
			target := backend.Target{NumQubits: n, Kind: backend.Cluster, Nodes: p, FuseWidth: 3, Emulate: recognize.Auto}
			x, err := backend.Compile(c, target)
			if err != nil {
				t.Fatalf("%s: Compile: %v", name, err)
			}
			if err := backend.VerifyExecutable(x); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			kinds := map[string]int{}
			for i := range x.Units {
				if op := x.Units[i].Op; op != nil {
					kinds[op.Kind()]++
				}
			}
			if kinds["qft"] != len(shapes) {
				t.Fatalf("%s: %d of %d Fourier ops compiled as ops (units by kind: %v)", name, kinds["qft"], len(shapes), kinds)
			}
			checkUnitReads(t, name, c, x, src)
			checkRelabelledTrajectories(t, name, c, x, seed)
		}
	}
	for _, inverse := range []bool{false, true} {
		for _, swaps := range []bool{false, true} {
			for _, field := range []fourierShape{{full: true}, {}, {above: true}} {
				s := fourierShape{inverse: inverse, swaps: swaps, above: field.above, full: field.full}
				if !seen[s] {
					t.Errorf("no generated circuit holds a Fourier op of shape %v", s)
				}
			}
		}
	}
}

// checkUnitReads runs x unit by unit on a fresh backend of its target,
// reading the state between units as relabelCircuit's test describes,
// then runs it whole and checks the one-node communication.
func checkUnitReads(t *testing.T, name string, c *circuit.Circuit, x *backend.Executable, src *rng.Source) {
	t.Helper()
	open := func() backend.Backend {
		b, err := backend.New(x.Target)
		if err != nil {
			t.Fatalf("%s: New: %v", name, err)
		}
		t.Cleanup(func() { b.Close() })
		return b
	}
	b, spare := open(), open()
	ref := statevec.New(c.NumQubits)
	for i := range x.Units {
		u := &x.Units[i]
		if err := b.RunUnits(x, i, i+1); err != nil {
			t.Fatalf("%s: unit %d: %v", name, i, err)
		}
		for _, g := range c.Gates[u.Lo:u.Hi] {
			ref.ApplyGate(g)
		}
		at := fmt.Sprintf("%s after unit %d (%s)", name, i, u.Substrate)
		switch src.Intn(6) {
		case 0:
			if d := b.State().MaxDiff(ref); d > 1e-10 {
				t.Fatalf("%s: State differs from the gate-by-gate state by %g", at, d)
			}
		case 1:
			seed := src.Uint64()
			want := ref.SampleMany(32, rng.New(seed))
			if got := b.SampleMany(32, rng.New(seed)); !slices.Equal(got, want) {
				t.Fatalf("%s: SampleMany drew %v, gate by gate %v", at, got, want)
			}
		case 2:
			q := uint(src.Intn(int(c.NumQubits)))
			if got, want := b.Probability(q), ref.Probability(q); got-want > 1e-10 || want-got > 1e-10 {
				t.Fatalf("%s: P(q%d) = %g, gate by gate %g", at, q, got, want)
			}
		case 3:
			// The copy keeps the placement; the run goes on there.
			if err := backend.CopyState(spare, b); err != nil {
				t.Fatalf("%s: CopyState: %v", at, err)
			}
			b, spare = spare, b
		}
	}
	if d := b.State().MaxDiff(ref); d > 1e-10 {
		t.Fatalf("%s: final state differs from the gate-by-gate state by %g", name, d)
	}
	b.Reset()
	res, err := b.Run(x)
	if err != nil {
		t.Fatalf("%s: Run: %v", name, err)
	}
	if x.Target.Nodes == 1 && res.Comm != (backend.Comm{}) {
		t.Errorf("%s: a one-node run communicated: %+v", name, res.Comm)
	}
	seed := src.Uint64()
	want := ref.SampleMany(64, rng.New(seed))
	if got := b.SampleMany(64, rng.New(seed)); !slices.Equal(got, want) {
		t.Fatalf("%s: SampleMany after Run drew %v, gate by gate %v", name, got, want)
	}
}

// checkRelabelledTrajectories runs a trajectory batch of x's circuit on
// x's target with its zero-probability noise points resolved: every
// Fourier op keeps its shortcut (its points follow its last gate), no
// jump happens, and each trajectory must sample what the gate-by-gate
// state samples from the trajectory's stream.
func checkRelabelledTrajectories(t *testing.T, name string, c *circuit.Circuit, x *backend.Executable, seed uint64) {
	t.Helper()
	if x.Noise == nil {
		t.Fatalf("%s: the circuit's noise points were not resolved", name)
	}
	ref := statevec.New(c.NumQubits)
	c.Run(ref)
	const draws = 24
	res, err := noise.Run(x, noise.Options{Trajectories: draws, Seed: seed, Workers: 2})
	if err != nil {
		t.Fatalf("%s: noise.Run: %v", name, err)
	}
	if res.Points == 0 || res.Jumps != 0 || res.StruckUnits != 0 {
		t.Fatalf("%s: %d points, %d jumps, %d struck units; want points and no jumps", name, res.Points, res.Jumps, res.StruckUnits)
	}
	master := rng.New(seed)
	for i, got := range res.Outcomes {
		src := rng.New(master.Uint64())
		for range res.Points {
			src.Float64()
		}
		if want := ref.Sample(src); got != want {
			t.Fatalf("%s: trajectory %d sampled |%d>, gate by gate |%d>", name, i, got, want)
		}
	}
}

// TestEmulateMixShapeOneNode pins the emulate-mix shape on one node — a
// Grover prefix, rotations, an adder, a diagonal run, then QFT ·
// rotations · QFT⁻¹: the QFT unit leaves the register's bit reversal in
// the placement, the rotation unit runs under it, the inverse restores
// the identity, the reflections lower placement-free, and the run
// communicates nothing.
func TestEmulateMixShapeOneNode(t *testing.T) {
	const n = 10
	src := rng.New(42)
	c := circuit.New(n)
	for q := uint(0); q < n; q++ {
		c.Append(gates.H(q))
	}
	for range 2 {
		marked := src.Uint64n(1 << n)
		lo := c.Len()
		args := []uint64{n}
		controls := make([]uint, 0, n-1)
		for q := uint(0); q < n; q++ {
			args = append(args, uint64(q))
			if marked>>q&1 == 0 {
				c.Append(gates.X(q))
			}
			if q > 0 {
				controls = append(controls, q)
			}
		}
		c.Append(gates.Z(0).WithControls(controls...))
		for q := uint(0); q < n; q++ {
			if marked>>q&1 == 0 {
				c.Append(gates.X(q))
			}
		}
		c.Annotate(circuit.Region{Name: "phaseflip", Args: append(args, marked), Lo: lo, Hi: c.Len()})
		appendReflection(c)
	}
	appendRotations(c, src)
	w := uint(n-1) / 2
	revlib.Adder(c, revlib.Seq(0, w), revlib.Seq(w, w), 2*w)
	appendDiagonalRun(c, src)
	c.Extend(qft.Circuit(n))
	appendRotations(c, src)
	c.Extend(qft.InverseCircuit(n))

	x, err := backend.Compile(c, backend.Target{NumQubits: n, Kind: backend.Fused, FuseWidth: 4, Emulate: recognize.Auto})
	if err != nil {
		t.Fatal(err)
	}
	b, err := backend.New(x.Target)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	cl := clusterOf(b)
	reversed := make([]uint, n)
	identity := make([]uint, n)
	for q := range reversed {
		reversed[q], identity[q] = n-1-uint(q), uint(q)
	}
	var qfts, reflects int
	for i := range x.Units {
		u := &x.Units[i]
		if err := b.RunUnits(x, i, i+1); err != nil {
			t.Fatal(err)
		}
		want := identity
		if qfts == 1 {
			want = reversed // between the transforms
		}
		if u.Op != nil {
			switch u.Op.Kind() {
			case "qft":
				qfts++
				if u.Substrate != cluster.SubstrateLocalFFT {
					t.Errorf("unit %d: Fourier op lowered to %q", i, u.Substrate)
				}
				want = reversed
				if qfts == 2 {
					want = identity
				}
			case "reflect":
				reflects++
				if u.Substrate != cluster.SubstrateReflect {
					t.Errorf("unit %d: reflection lowered to %q", i, u.Substrate)
				}
			}
		}
		if got := cl.Placement(); !slices.Equal(got, want) {
			t.Errorf("unit %d (%s, after %d Fourier ops): placement %v, want %v", i, u.Substrate, qfts, got, want)
		}
	}
	if qfts != 2 || reflects != 2 {
		t.Fatalf("compiled %d Fourier ops and %d reflections, want 2 and 2", qfts, reflects)
	}
	ref := statevec.New(n)
	c.Run(ref)
	if d := b.State().MaxDiff(ref); d > 1e-10 {
		t.Errorf("differs from the gate-by-gate state by %g", d)
	}
	b.Reset()
	res, err := b.Run(x)
	if err != nil {
		t.Fatal(err)
	}
	if res.Comm != (backend.Comm{}) {
		t.Errorf("one-node run communicated: %+v", res.Comm)
	}
}

// TestOneNodeStatevecFourierArtifactFails: an artifact of the current
// layout version whose one-node Fourier op or reflection names the
// statevec substrate — what builds before the one-node relabel wrote —
// must fail VerifyExecutable, so a cache warm-start deletes and
// recompiles it.
func TestOneNodeStatevecFourierArtifactFails(t *testing.T) {
	c := prep(6)
	c.Extend(qft.Circuit(6))
	appendReflection(c)
	x, err := backend.Compile(c, backend.Target{NumQubits: 6, Kind: backend.Fused, FuseWidth: 4, Emulate: recognize.Annotated})
	if err != nil {
		t.Fatal(err)
	}
	if err := backend.VerifyExecutable(x); err != nil {
		t.Fatalf("fresh executable fails verification: %v", err)
	}
	for _, kind := range []string{"qft", "reflect"} {
		stale := *x
		stale.Units = slices.Clone(x.Units)
		found := false
		for i := range stale.Units {
			if op := stale.Units[i].Op; op != nil && op.Kind() == kind {
				stale.Units[i].Substrate = cluster.SubstrateStatevec
				found = true
			}
		}
		if !found {
			t.Fatalf("no %s unit compiled", kind)
		}
		art, err := stale.Encode()
		if err != nil {
			t.Fatal(err)
		}
		y, err := backend.Decode(art)
		if err != nil {
			t.Fatalf("%s: a stale artifact no longer decodes: %v", kind, err)
		}
		if err := backend.VerifyExecutable(y); err == nil {
			t.Errorf("%s: a one-node unit naming %q verifies", kind, cluster.SubstrateStatevec)
		}
	}
}
