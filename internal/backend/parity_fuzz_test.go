package backend_test

import (
	"fmt"
	"testing"

	"repro/internal/backend"
	"repro/internal/circgen"
	"repro/internal/circuit"
	"repro/internal/noise"
	"repro/internal/recognize"
	"repro/internal/rng"
	"repro/internal/statevec"
)

// parityCircuit decodes one fuzz input into a generated circuit: the
// family, a width of 5..10 qubits and the family's size parameter.
func parityCircuit(seed uint64, family, width, size uint8) (string, *circuit.Circuit) {
	src := rng.New(seed)
	n := 5 + uint(width%6)
	switch family % 5 {
	case 0:
		return fmt.Sprintf("brickwork-n%d-s%d", n, seed), circgen.Brickwork(src, n, 2+int(size%6))
	case 1:
		return fmt.Sprintf("ladders-n%d-s%d", n, seed), circgen.QFTLadders(src, n, 1+int(size%3))
	case 2:
		return fmt.Sprintf("phaseruns-n%d-s%d", n, seed), circgen.InterruptedPhaseRuns(src, n, 4+int(size%8))
	case 3:
		return fmt.Sprintf("widectl-n%d-s%d", n, seed), circgen.WideControlled(src, n, 2+int(size%3))
	default:
		return fmt.Sprintf("arithmetic-n%d-s%d", n, seed), circgen.Arithmetic(src, n, 1+int(size%3))
	}
}

// parityTarget is one named execution shape.
type parityTarget struct {
	name string
	t    backend.Target
}

// parityTargets is every execution shape Compile can produce for an
// n-qubit register, in a fixed order so a failing input reports the same
// first failure on every replay: the two baselines, the auto target, and
// the fused engine at four widths and both cluster sizes with emulation
// off and on.
func parityTargets(n uint) []parityTarget {
	ts := []parityTarget{
		{"generic", backend.Target{NumQubits: n, Kind: backend.Generic}},
		{"sparse", backend.Target{NumQubits: n, Kind: backend.Sparse}},
		{"auto", backend.Target{NumQubits: n, Auto: true}},
	}
	for _, mode := range []recognize.Mode{recognize.Off, recognize.Auto} {
		for _, w := range []int{1, 2, 4, 8} {
			ts = append(ts, parityTarget{fmt.Sprintf("fused-w%d-%v", w, mode), backend.Target{
				NumQubits: n, Kind: backend.Fused, FuseWidth: w, Emulate: mode}})
		}
		for _, p := range []int{2, 4} {
			ts = append(ts, parityTarget{fmt.Sprintf("cluster-p%d-%v", p, mode), backend.Target{
				NumQubits: n, Kind: backend.Cluster, Nodes: p, FuseWidth: 3, Emulate: mode}})
		}
	}
	return ts
}

// paritySeeds is the checked-in corpus: every family at three widths, sizes
// spread over the decoded range, then arithmetic inputs at every width so
// that between them every permutation-family op kind is recognised
// (TestParitySeedsReachEveryArithmeticOp), multipliers on contiguous
// registers — the widened field-add sweep — among them.
func paritySeeds() [][4]uint64 {
	var seeds [][4]uint64
	for i := uint64(0); i < 15; i++ {
		seeds = append(seeds, [4]uint64{2300 + i, i, i/5*2 + i%2, 3 * i})
	}
	for i := uint64(0); i < 6; i++ {
		seeds = append(seeds, [4]uint64{2400 + i, 4, i, 2})
	}
	return seeds
}

// TestParitySeedsReachEveryArithmeticOp keeps the corpus honest: compiled
// with recognition on, its arithmetic inputs hold an op of each kind.
func TestParitySeedsReachEveryArithmeticOp(t *testing.T) {
	reached := map[string]int{}
	for _, s := range paritySeeds() {
		_, c := parityCircuit(s[0], uint8(s[1]), uint8(s[2]), uint8(s[3]))
		x, err := backend.Compile(c, backend.Target{FuseWidth: 4, Emulate: recognize.Auto})
		if err != nil {
			t.Fatal(err)
		}
		for i := range x.Units {
			if op := x.Units[i].Op; op != nil {
				reached[op.Kind()]++
			}
		}
	}
	for _, kind := range []string{"add", "sub", "addc", "mul", "div"} {
		if reached[kind] == 0 {
			t.Errorf("no seed compiles to a %s op (ops reached: %v)", kind, reached)
		}
	}
}

// FuzzCompileParity is the one-path safety net: whatever Compile builds
// for a target — fused blocks, recognised shortcuts, placement schedules,
// the selector's pick — running it must equal the circuit applied gate by
// gate to 1e-10, and sample draw for draw like it under one seed. Its last
// row turns noise on at p = 0, which must be noise off (checkNoiseParity).
func FuzzCompileParity(f *testing.F) {
	for _, s := range paritySeeds() {
		f.Add(s[0], uint8(s[1]), uint8(s[2]), uint8(s[3]))
	}
	f.Fuzz(func(t *testing.T, seed uint64, family, width, size uint8) {
		name, c := parityCircuit(seed, family, width, size)
		ref := statevec.New(c.NumQubits)
		c.Run(ref)
		const draws = 64
		want := ref.SampleMany(draws, rng.New(seed))
		for _, pt := range parityTargets(c.NumQubits) {
			tname, target := pt.name, pt.t
			x, err := backend.Compile(c, target)
			if err != nil {
				t.Fatalf("%s/%s: Compile: %v", name, tname, err)
			}
			if err := backend.VerifyExecutable(x); err != nil {
				t.Fatalf("%s/%s: compiled executable fails verification: %v", name, tname, err)
			}
			b, err := backend.New(x.Target)
			if err != nil {
				t.Fatalf("%s/%s: New: %v", name, tname, err)
			}
			t.Cleanup(func() { b.Close() })
			if _, err := b.Run(x); err != nil {
				t.Fatalf("%s/%s: Run: %v", name, tname, err)
			}
			if d := b.State().MaxDiff(ref); d > 1e-10 {
				t.Fatalf("%s/%s: differs from the gate-by-gate state by %g", name, tname, d)
			}
			got := b.SampleMany(draws, rng.New(seed))
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s/%s: draw %d is |%d>, gate by gate |%d>", name, tname, i, got[i], want[i])
				}
			}
		}
		checkNoiseParity(t, name, c, ref, seed, draws)
	})
}

// checkNoiseParity is FuzzCompileParity's noise row: c under a global
// depolarizing channel with p = 0, compiled at fused w=4 with recognition
// on. A point after every gate sends every recognised op back to gate
// level, so this is the row where they return. The executable's units must
// leave the gate-by-gate state ref to 1e-10, and draws trajectories of
// noise.Run must sample like ref draw for draw: trajectory t seeds its
// stream from the batch seed's master stream and draws one variate per
// noise point before it samples.
func checkNoiseParity(t *testing.T, name string, c *circuit.Circuit, ref *statevec.State, seed uint64, draws int) {
	t.Helper()
	noisy := circuit.New(c.NumQubits).Extend(c)
	noisy.SetGlobalNoise(circuit.Channel{Kind: circuit.Depolarizing, P: 0})
	x, err := backend.Compile(noisy, backend.Target{
		NumQubits: c.NumQubits, Kind: backend.Fused, FuseWidth: 4, Emulate: recognize.Auto})
	if err != nil {
		t.Fatalf("%s/noise-p0: Compile: %v", name, err)
	}
	if err := backend.VerifyExecutable(x); err != nil {
		t.Fatalf("%s/noise-p0: compiled executable fails verification: %v", name, err)
	}
	b, err := backend.New(x.Target)
	if err != nil {
		t.Fatalf("%s/noise-p0: New: %v", name, err)
	}
	t.Cleanup(func() { b.Close() })
	if err := b.RunUnits(x, 0, len(x.Units)); err != nil {
		t.Fatalf("%s/noise-p0: RunUnits: %v", name, err)
	}
	if d := b.State().MaxDiff(ref); d > 1e-10 {
		t.Fatalf("%s/noise-p0: differs from the gate-by-gate state by %g", name, d)
	}

	res, err := noise.Run(x, noise.Options{Trajectories: draws, Seed: seed})
	if err != nil {
		t.Fatalf("%s/noise-p0: noise.Run: %v", name, err)
	}
	if res.Points == 0 || res.Jumps != 0 || res.StruckUnits != 0 {
		t.Fatalf("%s/noise-p0: %d points, %d jumps, %d struck units; want points and no jumps", name, res.Points, res.Jumps, res.StruckUnits)
	}
	master := rng.New(seed)
	for i, got := range res.Outcomes {
		src := rng.New(master.Uint64())
		for range res.Points {
			src.Float64()
		}
		if want := ref.Sample(src); got != want {
			t.Fatalf("%s/noise-p0: trajectory %d sampled |%d>, gate by gate |%d>", name, i, got, want)
		}
	}
}
