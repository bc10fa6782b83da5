package backend

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/cluster"
	"repro/internal/fuse"
	"repro/internal/gates"
	"repro/internal/perfmodel"
	"repro/internal/recognize"
)

// Unit is one dispatch step of an Executable: either a recognised
// emulation shortcut (Op non-nil) or a gate segment with its precompiled
// schedules.
type Unit struct {
	// Op, when non-nil, is the recognised shortcut replacing gates
	// [Lo, Hi); Substrate names how it executes on the target.
	Op        *recognize.Op
	Substrate string
	// Gates is the segment's gate slice (aliasing the source circuit): what
	// the gate-by-gate kinds execute, and on every kind what the trajectory
	// runner replays one gate at a time when a noise point strikes inside
	// the unit. Fused is its fusion plan (Fused and Cluster kinds); Sched
	// its communication schedule (Cluster kind).
	Gates []gates.Gate
	Fused *fuse.Plan
	Sched *cluster.Schedule
	// Lo and Hi bound the unit's gate range in the source circuit.
	Lo, Hi int
}

// Executable is a compiled circuit: the pass pipeline's output, immutable
// and reusable across runs and across backends of the same Target shape.
type Executable struct {
	NumQubits uint
	NumGates  int
	// Target is the normalized shape the executable was compiled for;
	// Backend.Run rejects executables of a different shape.
	Target Target
	Units  []Unit
	// Skipped, EmulatedGates, FusedBlocks and PlannedRemaps summarise the
	// compilation for Result reporting.
	Skipped       []recognize.Skip
	EmulatedGates int
	FusedBlocks   int
	PlannedRemaps int
	// PlannedRounds is the scheduler's total communication round budget
	// for the gate segments (remaps + exchange gates); recognised ops add
	// their own collective rounds at run time.
	PlannedRounds int
	// Noise is the compiled insertion-point plan of the source circuit's
	// noise model, aligned to the unit schedule (a hard point's gate closes
	// its unit, a soft point lies inside a gate unit or closes any unit —
	// see NoisePlan); nil for ideal circuits. Run ignores it — the
	// trajectory runner (internal/noise) runs a unit whole and strikes
	// after it, or replays the unit's gates when a point fires inside.
	Noise *NoisePlan
	// SourceKey is the Fingerprint of the (circuit, target) pair this
	// executable was compiled from — the serving cache's key. It rides in
	// the artifact (codec v3) so a decoded .qexe can prove it belongs
	// under the filename it was loaded from: crc32 catches bit rot, the
	// key catches a renamed or swapped artifact.
	SourceKey string
	// Selection records the auto backend's target search when the
	// executable was compiled for an Auto target (Target above is then
	// the resolved concrete shape). It is report metadata, not execution
	// state, and is not serialized by the artifact codec — a decoded
	// executable runs identically without it.
	Selection *Selection
}

// FusionStats sums the fusion plans' statistics over the executable's
// gate units: what the planner made of everything that is not emulated.
func (x *Executable) FusionStats() fuse.Stats {
	var st fuse.Stats
	for i := range x.Units {
		if p := x.Units[i].Fused; p != nil {
			st.Add(p.Stats())
		}
	}
	return st
}

// substrateLocal names the single-node execution substrate of a
// recognised op (the statevec shortcuts of internal/recognize).
const substrateLocal = "statevec"

// Compile runs the pass pipeline over c for the given target: recognize
// (emulation regions), the diagonal cost model, distributed lowerability,
// fuse (residual gate runs), and placement scheduling. Auto targets run
// the profile and select passes first (profile.go, select.go): the
// selector resolves the concrete shape and replaces the static diagonal
// cutoff with per-region model verdicts, and the executable's Target is
// the resolved shape (Auto=false) so every downstream consumer — Run,
// the codec, the serving cache — sees an ordinary concrete executable.
// See the package comment for the pass contract.
func Compile(c *circuit.Circuit, t Target) (*Executable, error) {
	t, err := t.normalize(c.NumQubits)
	if err != nil {
		return nil, err
	}
	if err := c.Noise.Validate(c.NumQubits, c.Len()); err != nil {
		return nil, fmt.Errorf("backend: %w", err)
	}
	// The cache key is fingerprinted from the *requested* target (auto
	// targets included), matching what internal/serve computes before it
	// ever calls Compile — so the key stamped into the artifact is the
	// name the cache persists it under.
	key, err := Fingerprint(c, t)
	if err != nil {
		return nil, err
	}
	var x *Executable
	if t.Auto {
		x, err = compileAuto(c, t)
	} else {
		// Pass 1: recognition.
		plan := recognize.Analyze(c, recognize.DefaultOptions(t.Emulate))

		// Pass 2: cost model — small diagonal runs the fused kernels already
		// execute in one sweep stay on the gate path.
		if t.Emulate != recognize.Off && t.DiagMinGates > 0 {
			plan = plan.Filter(recognize.KeepAboveDiagCutoff(t.DiagMinGates, t.DiagMaxWidth),
				"cost model: below the dispatch cutoff, the fused kernel runs it in one sweep")
		}
		x, err = finishCompile(c, t, plan, nil)
	}
	if err != nil {
		return nil, err
	}
	x.SourceKey = key
	return x, nil
}

// compileAuto is the auto target's front half of the pipeline: profile
// the circuit (one recognition pass, reused below), score the candidate
// shapes with the calibrated model, and filter the recognition plan by
// the per-region verdicts before handing the resolved concrete target to
// the shared back half.
func compileAuto(c *circuit.Circuit, t Target) (*Executable, error) {
	prof, plan := ProfileCircuit(c)
	sel := SelectTarget(prof, perfmodel.Active())

	resolved := sel.Chosen
	resolved.Workers = t.Workers
	resolved, err := resolved.normalize(c.NumQubits)
	if err != nil {
		return nil, err
	}

	if resolved.Emulate == recognize.Off {
		// A structure-blind baseline won; regions run gate-level.
		plan = plan.Filter(func(*recognize.Op) bool { return false },
			"auto cost model: structure-blind baseline predicted faster")
	} else {
		// Per-region verdicts replace the static diagonal cutoff. Match
		// by gate range: the verdicts were computed from this same plan.
		emulate := make(map[[2]int]bool, len(sel.Verdicts))
		for _, v := range sel.Verdicts {
			emulate[[2]int{v.Lo, v.Hi}] = v.Emulate
		}
		plan = plan.Filter(func(op *recognize.Op) bool {
			return emulate[[2]int{op.Lo, op.Hi}]
		}, "auto cost model: fused gate path predicted faster")
	}
	return finishCompile(c, resolved, plan, &sel)
}

// finishCompile is the pipeline's shared back half: distributed
// lowerability filtering, then fusion and placement scheduling per gate
// segment. Both the explicit and the auto path end here, so compiled
// executables are identical however the target was chosen.
func finishCompile(c *circuit.Circuit, t Target, plan *recognize.Plan, sel *Selection) (*Executable, error) {
	x := &Executable{NumQubits: c.NumQubits, NumGates: c.Len(), Target: t, Selection: sel}

	// Noise pass: resolve the circuit's error model into insertion points.
	// A recognised op with a point before its last gate returns to gate
	// level — a monolithic shortcut has no gates to replay a mid-range
	// strike through — and its gates then fuse like any other segment;
	// ops struck only after their last gate keep their shortcuts.
	noise := resolveNoise(c)
	if noise != nil {
		plan = plan.Filter(func(op *recognize.Op) bool {
			return len(noise.PointsIn(op.Lo, op.Hi-1)) == 0
		}, "noise insertion inside the region; gate-level")
	}

	// Pass 3: distributed lowerability.
	if t.Kind == Cluster {
		n, L, P := t.NumQubits, t.LocalQubits(), t.Nodes
		plan = plan.Filter(func(op *recognize.Op) bool {
			_, ok := cluster.Lowerable(op, n, L, P)
			return ok
		}, "no distributed lowering; gate-level")
	}
	x.Skipped = plan.Skipped

	// Passes 4+5: fusion and placement scheduling per gate unit, gate
	// segments split where the noise plan asks (NoisePlan.splitSegment:
	// after every hard point, and where a unit's expected replay cost
	// reaches one sweep).
	for _, seg := range plan.Segments {
		if seg.Op != nil {
			sub := substrateLocal
			if t.Kind == Cluster {
				sub, _ = cluster.Lowerable(seg.Op, t.NumQubits, t.LocalQubits(), t.Nodes)
			}
			x.addOpUnit(seg.Op, sub, seg.Lo, seg.Hi)
			continue
		}
		err := noise.splitSegment(seg.Lo, seg.Hi, func(lo, hi int) error {
			return x.addGateUnit(c.Gates[lo:hi], lo, hi)
		})
		if err != nil {
			return nil, err
		}
	}
	x.Noise = noise
	return x, nil
}

// addOpUnit appends a recognised-shortcut unit, maintaining the summary
// counters. It is shared by Compile and the artifact decoder
// (codec.go), so both construct identical executables.
func (x *Executable) addOpUnit(op *recognize.Op, substrate string, lo, hi int) {
	x.Units = append(x.Units, Unit{Op: op, Substrate: substrate, Lo: lo, Hi: hi})
	x.EmulatedGates += hi - lo
}

// addGateUnit appends a gate-segment unit, lowering it for the target:
// fusion planning (Fused and Cluster kinds) and placement scheduling
// (Cluster kind) — deterministic pure functions of (gates, target), which
// is what lets the artifact decoder rebuild them instead of shipping
// them on the wire.
func (x *Executable) addGateUnit(gs []gates.Gate, lo, hi int) error {
	t := x.Target
	u := Unit{Gates: gs, Lo: lo, Hi: hi}
	segCirc := &circuit.Circuit{NumQubits: x.NumQubits, Gates: u.Gates}
	switch t.Kind {
	case Fused, Cluster:
		u.Fused = fuse.New(segCirc, int(t.effectiveFuseWidth()))
		for i := range u.Fused.Blocks {
			if u.Fused.Blocks[i].Fused() {
				x.FusedBlocks++
			}
		}
		if t.Kind == Cluster {
			sched, err := cluster.BuildSchedule(u.Fused, t.NumQubits, t.LocalQubits(), true)
			if err != nil {
				return err
			}
			u.Sched = sched
			x.PlannedRemaps += sched.Remaps
			x.PlannedRounds += sched.Rounds
		}
	case Generic, Sparse:
		// Structure-blind baselines replay the raw gate stream.
	}
	x.Units = append(x.Units, u)
	return nil
}

// result builds the compile-time part of a Result; Run fills Wall and
// Comm.
func (x *Executable) result() *Result {
	r := &Result{
		TotalGates:    x.NumGates,
		EmulatedGates: x.EmulatedGates,
		Skipped:       x.Skipped,
		FusedBlocks:   x.FusedBlocks,
		PlannedRemaps: x.PlannedRemaps,
		Selection:     x.Selection,
	}
	for _, u := range x.Units {
		if u.Op == nil {
			continue
		}
		r.Emulated = append(r.Emulated, RegionReport{
			Kind: u.Op.Kind(), Lo: u.Lo, Hi: u.Hi, Gates: u.Hi - u.Lo,
			Annotated: u.Op.Annotated, Verified: u.Op.Verified, Substrate: u.Substrate,
		})
	}
	return r
}
