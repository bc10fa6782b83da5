package noise

import (
	"math"
	"testing"

	"repro/internal/backend"
	"repro/internal/circgen"
	"repro/internal/circuit"
	"repro/internal/gates"
	"repro/internal/noise/densref"
	"repro/internal/recognize"
	"repro/internal/rng"
)

// compile compiles c for a fused target.
func compile(t *testing.T, c *circuit.Circuit) *backend.Executable {
	t.Helper()
	x, err := backend.Compile(c, backend.Target{NumQubits: c.NumQubits, Kind: backend.Fused})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return x
}

// referenceRun is the oracle every runner test compares against, and it
// knows nothing about units, fusion or pre-drawn variates: on the Generic
// backend it applies c's gates one by one and, after gate g, every plan
// point of g in plan order, drawing one Float64 per point the moment it is
// reached. Its sub-seeds come off the master stream the way Run documents.
func referenceRun(t testing.TB, c *circuit.Circuit, plan *backend.NoisePlan, trajectories int, seed uint64) (outcomes []uint64, jumps uint64) {
	t.Helper()
	b, err := backend.New(backend.Target{NumQubits: c.NumQubits, Kind: backend.Generic})
	if err != nil {
		t.Fatalf("reference backend: %v", err)
	}
	defer b.Close()
	// damp applies one damping channel: the jump with probability
	// γ·P(q=1), else K₀ = diag(1, √(1−γ)).
	damp := func(jump gates.Matrix2, pt backend.NoisePoint, u float64) bool {
		if u < pt.Ch.P*b.Probability(pt.Qubit) {
			b.ApplyKraus(jump, pt.Qubit)
			return true
		}
		b.ApplyKraus(gates.Matrix2{1, 0, 0, complex(math.Sqrt(1-pt.Ch.P), 0)}, pt.Qubit)
		return false
	}
	master := rng.New(seed)
	for i := 0; i < trajectories; i++ {
		src := rng.New(master.Uint64())
		b.Reset()
		for g, gate := range c.Gates {
			b.ApplyGate(gate)
			for _, pt := range plan.PointsIn(g, g+1) {
				u, p, q := src.Float64(), pt.Ch.P, pt.Qubit
				fired := u < p // the Pauli kinds; the damping kinds overwrite it
				root := complex(math.Sqrt(p), 0)
				switch {
				case pt.Ch.Kind == circuit.AmplitudeDamping:
					fired = damp(gates.Matrix2{0, root, 0, 0}, pt, u)
				case pt.Ch.Kind == circuit.PhaseDamping:
					fired = damp(gates.Matrix2{0, 0, 0, root}, pt, u)
				case !fired:
				case pt.Ch.Kind == circuit.FlipX, pt.Ch.Kind == circuit.Depolarizing && u < p/3:
					b.ApplyGate(gates.X(q))
				case pt.Ch.Kind == circuit.FlipY, pt.Ch.Kind == circuit.Depolarizing && u < 2*p/3:
					b.ApplyGate(gates.Y(q))
				default:
					b.ApplyGate(gates.Z(q))
				}
				if fired {
					jumps++
				}
			}
		}
		outcomes = append(outcomes, b.Sample(src))
	}
	return outcomes, jumps
}

// checkHistogram compares the empirical outcome distribution against the
// exact density-matrix diagonal, bin by bin, at five standard errors
// plus a small-count floor. With ≤64 bins and 5σ the false-positive
// rate is far below 1e-4 per run.
func checkHistogram(t *testing.T, outcomes []uint64, want []float64) {
	t.Helper()
	n := float64(len(outcomes))
	counts := make([]float64, len(want))
	for _, o := range outcomes {
		counts[o]++
	}
	for i, p := range want {
		got := counts[i] / n
		tol := 5*math.Sqrt(p*(1-p)/n) + 2/n
		if math.Abs(got-p) > tol {
			t.Errorf("basis %d: trajectory frequency %.4f, density reference %.4f (tol %.4f)", i, got, p, tol)
		}
	}
}

// oracleCircuits builds the small noisy circuits the histogram tests
// replay: every channel kind appears, both globally and per-gate.
func oracleCircuits() map[string]*circuit.Circuit {
	out := make(map[string]*circuit.Circuit)

	bell := circuit.New(2).Append(gates.H(0), gates.CNOT(0, 1))
	bell.SetGlobalNoise(circuit.Channel{Kind: circuit.Depolarizing, P: 0.1})
	out["bell-depolarizing"] = bell

	ghz := circuit.New(3).Append(gates.H(0), gates.CNOT(0, 1), gates.CNOT(1, 2))
	ghz.AttachNoise(1, 1, circuit.Channel{Kind: circuit.AmplitudeDamping, P: 0.3})
	ghz.AttachNoise(2, 2, circuit.Channel{Kind: circuit.PhaseDamping, P: 0.4})
	ghz.SetGlobalNoise(circuit.Channel{Kind: circuit.FlipX, P: 0.05})
	out["ghz-damping"] = ghz

	flips := circuit.New(2).Append(gates.H(0), gates.H(1), gates.CZ(0, 1))
	flips.AttachNoise(0, 0, circuit.Channel{Kind: circuit.FlipY, P: 0.2})
	flips.AttachNoise(2, 1, circuit.Channel{Kind: circuit.FlipZ, P: 0.3})
	out["flips"] = flips

	return out
}

func TestTrajectoriesMatchDensityReference(t *testing.T) {
	for name, c := range oracleCircuits() {
		t.Run(name, func(t *testing.T) {
			want, err := densref.BasisProbabilities(c)
			if err != nil {
				t.Fatalf("densref: %v", err)
			}
			x := compile(t, c)
			res, err := Run(x, Options{Trajectories: 10000, Seed: 7, Workers: 4})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			checkHistogram(t, res.Outcomes, want)
		})
	}
}

// TestIdealBatch runs a noise-free executable through the trajectory
// path: it must degenerate to repeated ideal sampling.
func TestIdealBatch(t *testing.T) {
	c := circuit.New(2).Append(gates.H(0), gates.CNOT(0, 1))
	x := compile(t, c)
	if x.Noise != nil {
		t.Fatalf("ideal circuit compiled a noise plan")
	}
	res, err := Run(x, Options{Trajectories: 500, Seed: 3, Workers: 2})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Jumps != 0 || res.Points != 0 {
		t.Fatalf("ideal batch reports %d jumps over %d points", res.Jumps, res.Points)
	}
	for _, o := range res.Outcomes {
		if o != 0 && o != 3 {
			t.Fatalf("Bell state sampled %d; only |00> and |11> have mass", o)
		}
	}
}

// seedDetCircuit is the determinism test's workload: all channel
// families, several qubits, amplitudes that sit far from sampling
// boundaries.
func seedDetCircuit() *circuit.Circuit {
	c := circuit.New(4).Append(
		gates.H(0), gates.CNOT(0, 1), gates.H(2), gates.CNOT(2, 3),
		gates.X(1), gates.CZ(1, 2), gates.H(3),
	)
	c.SetGlobalNoise(circuit.Channel{Kind: circuit.Depolarizing, P: 0.02})
	c.AttachNoise(3, 3, circuit.Channel{Kind: circuit.AmplitudeDamping, P: 0.25})
	c.AttachNoise(5, 2, circuit.Channel{Kind: circuit.PhaseDamping, P: 0.15})
	return c
}

// TestSeedDeterminism pins the draw-for-draw contract: one seed must
// yield the identical outcome sequence whatever the worker count, and
// across the local engine and cluster shardings P=1 and P=2.
func TestSeedDeterminism(t *testing.T) {
	c := seedDetCircuit()
	const trajectories = 200

	targets := map[string]backend.Target{
		"fused":     {NumQubits: c.NumQubits, Kind: backend.Fused},
		"cluster-1": {NumQubits: c.NumQubits, Kind: backend.Cluster, Nodes: 1},
		"cluster-2": {NumQubits: c.NumQubits, Kind: backend.Cluster, Nodes: 2},
	}
	var ref []uint64
	for _, name := range []string{"fused", "cluster-1", "cluster-2"} {
		x, err := backend.Compile(c, targets[name])
		if err != nil {
			t.Fatalf("%s: Compile: %v", name, err)
		}
		for _, workers := range []int{1, 4} {
			res, err := Run(x, Options{Trajectories: trajectories, Seed: 99, Workers: workers})
			if err != nil {
				t.Fatalf("%s workers=%d: Run: %v", name, workers, err)
			}
			if ref == nil {
				ref = res.Outcomes
				continue
			}
			for i := range ref {
				if res.Outcomes[i] != ref[i] {
					t.Fatalf("%s workers=%d: trajectory %d sampled %d, reference run sampled %d — realisations must be a pure function of (seed, trajectory)",
						name, workers, i, res.Outcomes[i], ref[i])
				}
			}
		}
	}
}

// TestTrajectoryConcurrency exercises the fan-out shape the race
// detector cares about: many workers striping a batch, damping channels
// forcing Probability+ApplyKraus interleavings on every trajectory.
func TestTrajectoryConcurrency(t *testing.T) {
	c := seedDetCircuit()
	x := compile(t, c)
	res, err := Run(x, Options{Trajectories: 128, Seed: 5, Workers: 8})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Outcomes) != 128 {
		t.Fatalf("batch returned %d outcomes for 128 trajectories", len(res.Outcomes))
	}
	counts := res.Counts()
	total := 0
	for _, n := range counts {
		total += n
	}
	if total != 128 {
		t.Fatalf("histogram counts %d of 128 outcomes", total)
	}
}

// TestNestedKernelFanOut runs trajectory workers whose kernels fan out
// again (14 qubits at two kernel workers each): two trajectory workers
// must sample what one does.
func TestNestedKernelFanOut(t *testing.T) {
	c := circgen.Brickwork(rng.New(17), 14, 4)
	c.SetGlobalNoise(circuit.Channel{Kind: circuit.Depolarizing, P: 0.02})
	c.AttachNoise(3, 5, circuit.Channel{Kind: circuit.AmplitudeDamping, P: 0.3})
	x, err := backend.Compile(c, backend.Target{NumQubits: 14, Kind: backend.Fused, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	var ref []uint64
	for _, workers := range []int{1, 2} {
		res, err := Run(x, Options{Trajectories: 12, Seed: 23, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if ref == nil {
			ref = res.Outcomes
			continue
		}
		for i := range ref {
			if res.Outcomes[i] != ref[i] {
				t.Fatalf("workers=%d: trajectory %d sampled %d, one worker sampled %d", workers, i, res.Outcomes[i], ref[i])
			}
		}
	}
}

// TestSharedUnits pins what Result.SharedUnits counts: every unit of every
// trajectory when nothing can fire — an ideal executable, or Pauli points
// at p = 0 — and none at p = 1, where the first unit always fires.
func TestSharedUnits(t *testing.T) {
	const trajectories = 24
	for _, tc := range []struct {
		name string
		p    float64 // < 0: no noise model
		all  bool    // every unit shared, else none
	}{{"ideal", -1, true}, {"p=0", 0, true}, {"p=1", 1, false}} {
		c := circgen.QFTLadders(rng.New(5), 6, 3)
		if tc.p >= 0 {
			c.SetGlobalNoise(circuit.Channel{Kind: circuit.Depolarizing, P: tc.p})
		}
		x, err := backend.Compile(c, backend.Target{NumQubits: 6, Kind: backend.Fused, FuseWidth: 2, Emulate: recognize.Auto})
		if err != nil {
			t.Fatalf("%s: Compile: %v", tc.name, err)
		}
		res, err := Run(x, Options{Trajectories: trajectories, Seed: 8, Workers: 2})
		if err != nil {
			t.Fatalf("%s: Run: %v", tc.name, err)
		}
		want := uint64(0)
		if tc.all {
			want = uint64(trajectories * len(x.Units))
		}
		t.Logf("%s: %d units, %d shared", tc.name, len(x.Units), res.SharedUnits)
		if res.SharedUnits != want {
			t.Errorf("%s: %d shared units over %d trajectories of %d units, want %d",
				tc.name, res.SharedUnits, trajectories, len(x.Units), want)
		}
	}
}

// TestHardPointEndsSharing: a damping point moves the state whatever its
// variate draws (its no-jump branch applies K₀), so a mid-circuit one ends
// every trajectory's shared prefix at its unit, on any worker count, and
// the outcomes stay the gate-by-gate reference's.
func TestHardPointEndsSharing(t *testing.T) {
	const n, trajectories, seed = 6, 30, 12
	// Brickwork, a recognised QFT ladder (a unit of its own), brickwork
	// again with the damping point in its middle, then a last ladder.
	c := circgen.Brickwork(rng.New(1), n, 2)
	c.Extend(circgen.QFTLadders(rng.New(2), n, 1))
	struck := c.Len() + 5
	c.Extend(circgen.Brickwork(rng.New(3), n, 2))
	c.Extend(circgen.QFTLadders(rng.New(4), n, 1))
	c.AttachNoise(struck, 2, circuit.Channel{Kind: circuit.AmplitudeDamping, P: 0.3})
	want, wantJumps := referenceRun(t, c, resolvePlan(t, c), trajectories, seed)

	x, err := backend.Compile(c, backend.Target{NumQubits: n, Kind: backend.Fused, FuseWidth: 2, Emulate: recognize.Auto})
	if err != nil {
		t.Fatal(err)
	}
	k := 0
	for x.Units[k].Hi <= struck {
		k++
	}
	if k < 2 || k == len(x.Units)-1 {
		t.Fatalf("the damping point lies in unit %d of %d; the test needs a shared prefix of several units and units after it", k, len(x.Units))
	}
	t.Logf("the damping point lies in unit %d of %d", k, len(x.Units))
	for _, workers := range []int{1, 2, 3} {
		res, err := Run(x, Options{Trajectories: trajectories, Seed: seed, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if res.SharedUnits != uint64(trajectories*k) {
			t.Errorf("workers=%d: %d shared units, want %d trajectories × %d units before the damping point's",
				workers, res.SharedUnits, trajectories, k)
		}
		for i := range want {
			if res.Outcomes[i] != want[i] {
				t.Fatalf("workers=%d: trajectory %d sampled %d, the gate-by-gate reference %d", workers, i, res.Outcomes[i], want[i])
			}
		}
		if res.Jumps != wantJumps {
			t.Errorf("workers=%d: %d jumps, the reference %d", workers, res.Jumps, wantJumps)
		}
	}
}

func TestRunRejectsBadOptions(t *testing.T) {
	c := circuit.New(1).Append(gates.H(0))
	x := compile(t, c)
	if _, err := Run(nil, Options{Trajectories: 1}); err == nil {
		t.Fatalf("nil executable accepted")
	}
	if _, err := Run(x, Options{Trajectories: 0}); err == nil {
		t.Fatalf("zero trajectories accepted")
	}
}

func TestParseSpec(t *testing.T) {
	ch, err := ParseSpec("depolarizing:0.001")
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	if ch.Kind != circuit.Depolarizing || ch.P != 0.001 {
		t.Fatalf("ParseSpec = %+v", ch)
	}
	for _, bad := range []string{"", "depolarizing", "warp:0.1", "x:1.5", "x:-0.1", "x:zero"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
	c := circuit.New(2).Append(gates.H(0))
	if err := Attach(c, ""); err != nil || !c.Noise.Empty() {
		t.Fatalf("empty spec must be a no-op (err %v)", err)
	}
	if err := Attach(c, "ampdamp:0.5"); err != nil {
		t.Fatalf("Attach: %v", err)
	}
	if len(c.Noise.Global) != 1 || c.Noise.Global[0].Kind != circuit.AmplitudeDamping {
		t.Fatalf("Attach left model %+v", c.Noise)
	}
}
