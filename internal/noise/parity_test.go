package noise

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/backend"
	"repro/internal/circgen"
	"repro/internal/circuit"
	"repro/internal/recognize"
	"repro/internal/rng"
)

// The parity suite: Run against referenceRun, draw for draw, over
// generated circuits, every channel kind, both attachment styles, the
// probabilities at which the compiled schedule changes character and
// every engine. What it protects is the claim the runner's speed rests
// on — that running a unit whole when its draws say no point fires
// inside, and replaying its gates when one does, is the same trajectory
// as striking after every gate.

// parityInput is one generated noisy circuit, as the table and the fuzz
// target both describe it.
type parityInput struct {
	seed   uint64 // circuit stream; seed%4 picks the family
	width  uint   // 5..8
	kind   circuit.ChannelKind
	p      float64
	global bool // one global channel, or per-gate attachments
}

func (in parityInput) String() string {
	style := "pergate"
	if in.global {
		style = "global"
	}
	return fmt.Sprintf("%s-n%d-s%d/%s-%s-p%g",
		[]string{"brickwork", "ladders", "phaseruns", "widectl"}[in.seed%4], in.width, in.seed, in.kind, style, in.p)
}

// build generates the circuit and attaches its noise. The per-gate style
// strikes every second or third gate on a qubit drawn from the whole
// register — as often as not outside the gate's support — and on every
// other struck gate adds a channel of the opposite class (damping beside
// Pauli, Pauli beside damping) on a second qubit, so hard and soft points
// share gates.
func (in parityInput) build() *circuit.Circuit {
	src := rng.New(in.seed)
	var c *circuit.Circuit
	switch in.seed % 4 {
	case 0:
		c = circgen.Brickwork(src, in.width, 2+src.Intn(2))
	case 1:
		c = circgen.QFTLadders(src, in.width, 1+src.Intn(2))
	case 2:
		c = circgen.InterruptedPhaseRuns(src, in.width, 4+src.Intn(4))
	default:
		c = circgen.WideControlled(src, in.width, 2+src.Intn(2))
	}
	ch := circuit.Channel{Kind: in.kind, P: in.p}
	if in.global {
		return c.SetGlobalNoise(ch)
	}
	partner := circuit.Channel{Kind: circuit.AmplitudeDamping, P: in.p}
	if in.kind >= circuit.AmplitudeDamping {
		partner.Kind = circuit.Depolarizing
	}
	for g, mixed := src.Intn(2), false; g < c.Len(); g, mixed = g+2+src.Intn(2), !mixed {
		c.AttachNoise(g, uint(src.Intn(int(in.width))), ch)
		if mixed {
			c.AttachNoise(g, uint(src.Intn(int(in.width))), partner)
		}
	}
	return c
}

// parityEngines are the execution shapes under test. The w=2 fused shape
// and the cluster run with recognition on, so ladders struck only on
// their last gate execute as emulated ops.
func parityEngines(n uint) map[string]backend.Target {
	return map[string]backend.Target{
		"fused-w1":   {NumQubits: n, Kind: backend.Fused},
		"fused-w2":   {NumQubits: n, Kind: backend.Fused, FuseWidth: 2, Emulate: recognize.Auto},
		"fused-w4":   {NumQubits: n, Kind: backend.Fused, FuseWidth: 4},
		"generic":    {NumQubits: n, Kind: backend.Generic},
		"cluster-p2": {NumQubits: n, Kind: backend.Cluster, Nodes: 2, FuseWidth: 3, Emulate: recognize.Auto},
	}
}

// checkParity compiles c for target, runs the batch and requires the
// reference's outcomes and jump count; it returns the executable and the
// batch for shape assertions.
func checkParity(t testing.TB, name string, c *circuit.Circuit, target backend.Target, opts Options, want []uint64, wantJumps uint64) (*backend.Executable, *Result) {
	t.Helper()
	x, err := backend.Compile(c, target)
	if err != nil {
		t.Fatalf("%s: Compile: %v", name, err)
	}
	if err := backend.VerifyExecutable(x); err != nil {
		t.Fatalf("%s: compiled executable fails verification: %v", name, err)
	}
	res, err := Run(x, opts)
	if err != nil {
		t.Fatalf("%s: Run: %v", name, err)
	}
	for i := range want {
		if res.Outcomes[i] != want[i] {
			t.Fatalf("%s: trajectory %d sampled %d, the gate-by-gate reference %d", name, i, res.Outcomes[i], want[i])
		}
	}
	if res.Jumps != wantJumps {
		t.Fatalf("%s: %d jumps, the gate-by-gate reference drew %d", name, res.Jumps, wantJumps)
	}
	return x, res
}

// resolvePlan is the insertion-point plan of c — the same for every
// target, which is the point: the reference reads it off one compile and
// every engine's compile must replay it.
func resolvePlan(t testing.TB, c *circuit.Circuit) *backend.NoisePlan {
	t.Helper()
	x, err := backend.Compile(c, backend.Target{NumQubits: c.NumQubits, Kind: backend.Generic})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return x.Noise
}

func TestTrajectoryParity(t *testing.T) {
	const trajectories, batchSeed = 12, 41
	kinds := []circuit.ChannelKind{circuit.FlipX, circuit.FlipY, circuit.FlipZ,
		circuit.Depolarizing, circuit.AmplitudeDamping, circuit.PhaseDamping}
	var struck, multiGateUnits uint64
	seed := uint64(100)
	for _, kind := range kinds {
		for _, global := range []bool{true, false} {
			for _, p := range []float64{0, 1e-3, 0.05, 0.3, 1} {
				for family := 0; family < 4; family++ {
					// A fresh circuit per cell, the family fixed by seed%4.
					seed += 4
					in := parityInput{seed: seed + uint64(family), width: 5 + uint(seed/4)%4, kind: kind, p: p, global: global}
					c := in.build()
					want, wantJumps := referenceRun(t, c, resolvePlan(t, c), trajectories, batchSeed)
					for engine, target := range parityEngines(in.width) {
						for _, workers := range []int{1, 3} {
							name := fmt.Sprintf("%v/%s/workers%d", in, engine, workers)
							x, res := checkParity(t, name, c, target,
								Options{Trajectories: trajectories, Seed: batchSeed, Workers: workers}, want, wantJumps)
							struck += res.StruckUnits
							for i := range x.Units {
								if x.Units[i].Hi-x.Units[i].Lo > 1 {
									multiGateUnits++
								}
								// p = 1 on every gate: a unit's second gate would
								// already cost a whole replay, so the rule
								// degenerates to the old schedule.
								if global && p == 1 && x.Units[i].Hi-x.Units[i].Lo != 1 {
									t.Fatalf("%s: unit %d spans [%d,%d) at p = 1", name, i, x.Units[i].Lo, x.Units[i].Hi)
								}
							}
							// p = 0 Pauli points never fire and never cut.
							if p == 0 && global && kind < circuit.AmplitudeDamping && target.Emulate == recognize.Off && len(x.Units) != 1 {
								t.Fatalf("%s: %d units at p = 0, want the whole circuit in one", name, len(x.Units))
							}
							if res.ReplayedGates > uint64(trajectories*c.Len()) || (res.StruckUnits == 0) != (res.ReplayedGates == 0) {
								t.Fatalf("%s: %d struck units, %d replayed gates of %d executed", name, res.StruckUnits, res.ReplayedGates, trajectories*c.Len())
							}
						}
					}
				}
			}
		}
	}
	// The table is only a test of the replay path if it takes it.
	if struck < 1000 || multiGateUnits == 0 {
		t.Fatalf("the table replayed %d struck units over %d multi-gate units; it no longer exercises the replay path", struck, multiGateUnits)
	}
	t.Logf("%d struck units replayed", struck)
}

// FuzzTrajectoryParity lets the fuzzer pick the circuit, the channel, the
// probability and the engine: the runner must equal the gate-by-gate
// reference and never panic.
func FuzzTrajectoryParity(f *testing.F) {
	// One seed per table axis value: every kind, both styles, the five
	// probabilities, every engine.
	for i, p := range []float64{0, 1e-3, 0.05, 0.3, 1, 0.3} {
		f.Add(uint64(104+i), uint8(i), uint8(i), p, uint8(i), uint8(i), i%2 == 0)
	}
	f.Fuzz(func(t *testing.T, circSeed uint64, width, kind uint8, p float64, fuseWidth, engine uint8, global bool) {
		if !(p >= 0 && p <= 1) {
			p = math.Abs(p) - math.Floor(math.Abs(p))
			if !(p >= 0 && p <= 1) { // NaN, ±Inf
				p = 0.5
			}
		}
		in := parityInput{seed: circSeed, width: 5 + uint(width%4), kind: circuit.ChannelKind(kind % 6), p: p, global: global}
		target := backend.Target{NumQubits: in.width, FuseWidth: 1 + int(fuseWidth%5)}
		switch engine % 3 {
		case 1:
			target.Kind = backend.Generic
		case 2:
			target.Kind, target.Nodes, target.Emulate = backend.Cluster, 2, recognize.Auto
		}
		c := in.build()
		const trajectories = 6
		want, wantJumps := referenceRun(t, c, resolvePlan(t, c), trajectories, circSeed)
		checkParity(t, fmt.Sprintf("%v/%s-w%d", in, target.Kind, target.FuseWidth), c, target,
			Options{Trajectories: trajectories, Seed: circSeed, Workers: 2}, want, wantJumps)
	})
}

// TestTrajectoryAllocations pins the hot path's allocation contract: a
// worker's backend, stream and variate buffer are allocated when the batch
// starts, so on one worker a batch of 40 trajectories allocates exactly
// what a batch of one does — every trajectory after the first is free.
// p = 0.05 keeps both the whole-unit and the replay path in the batch.
func TestTrajectoryAllocations(t *testing.T) {
	for _, target := range []backend.Target{
		{NumQubits: 8, Kind: backend.Fused, FuseWidth: 4, Workers: 1},
		{NumQubits: 8, Kind: backend.Cluster, Nodes: 2, FuseWidth: 4, Workers: 1},
	} {
		t.Run(fmt.Sprintf("%s-p%d", target.Kind, max(target.Nodes, 1)), func(t *testing.T) {
			c := circgen.Brickwork(rng.New(9), 8, 6)
			c.SetGlobalNoise(circuit.Channel{Kind: circuit.Depolarizing, P: 0.05})
			c.AttachNoise(5, 2, circuit.Channel{Kind: circuit.AmplitudeDamping, P: 0.1})
			x, err := backend.Compile(c, target)
			if err != nil {
				t.Fatal(err)
			}
			var struck uint64
			batch := func(n int) float64 {
				return testing.AllocsPerRun(5, func() {
					res, err := Run(x, Options{Trajectories: n, Seed: 11, Workers: 1})
					if err != nil {
						t.Fatal(err)
					}
					struck = res.StruckUnits
				})
			}
			one, forty := batch(1), batch(40)
			if struck == 0 {
				t.Fatal("no unit was struck in 40 trajectories; the replay path is not under the pin")
			}
			if forty != one {
				t.Errorf("a 40-trajectory batch allocates %.0f times, a 1-trajectory batch %.0f: trajectories after the first must allocate nothing", forty, one)
			}
		})
	}
}
