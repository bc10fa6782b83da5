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
	// the Generic kind executes, and on every kind what the trajectory
	// runner replays one gate at a time when a noise point strikes inside
	// the unit. Fused is its fusion plan and Sched its communication
	// schedule, which RunSchedule executes (nil on Generic targets).
	Gates []gates.Gate
	Fused *fuse.Plan
	Sched *cluster.Schedule
	// Prefix, on the first unit of a noise-free cluster executable when it
	// is a gate unit, is a fresh run's product prefix over units [0,
	// Prefix.End) (prefix.go); Fused and Sched then plan the span's
	// remainder, and the span's other gate units carry neither. Nil when
	// there is none or the cost model prices it no cheaper.
	Prefix *Prefix
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
	// their own collective rounds at run time. Both counts are a run from
	// |0...0>'s: a product prefix's span counts its remainder's schedule.
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
	// the artifact so a decoded .qexe can prove it belongs
	// under the filename it was loaded from: crc32 catches bit rot, the
	// key catches a renamed or swapped artifact.
	SourceKey string
	// Selection records the target search when the executable was
	// compiled for an Auto target (Target above is then the resolved
	// concrete shape, the one to open). It is report metadata, not execution
	// state, and is not serialized by the artifact codec — a decoded
	// executable runs identically without it.
	Selection *Selection

	// carry grows the product prefix while units are appended; nil once
	// the lowering has closed it (closeCarry).
	carry *carry
}

// FusionStats sums the fusion plans' statistics over the executable's
// gate units: what the planner made of everything that is not emulated
// or, in a product prefix's span, filled.
func (x *Executable) FusionStats() fuse.Stats {
	var st fuse.Stats
	for i := range x.Units {
		if p := x.Units[i].Fused; p != nil {
			st.Add(p.Stats())
		}
	}
	return st
}

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
	// circuit.Append checks the register bound only; a hand-built circuit
	// can still hold a gate that repeats a qubit.
	for i, g := range c.Gates {
		if err := checkGateQubits(g, c.NumQubits); err != nil {
			return nil, fmt.Errorf("backend: gate %d: %w", i, err)
		}
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
		if t.Emulate != recognize.Off {
			plan = plan.Filter(recognize.KeepAboveDiagCutoff(recognize.DefaultDiagCutoffGates, t.effectiveFuseWidth()),
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
// shapes with the perfmodel table, and filter the recognition plan by
// the per-region verdicts before handing the resolved concrete target to
// the shared back half.
func compileAuto(c *circuit.Circuit, t Target) (*Executable, error) {
	prof, plan := ProfileCircuit(c)
	m := perfmodel.Active()
	sel := SelectTarget(prof, m)

	resolved := sel.Chosen
	resolved.Workers = t.Workers
	resolved, err := resolved.normalize(c.NumQubits)
	if err != nil {
		return nil, err
	}
	sel.Chosen = resolved

	// Per-region verdicts replace the static diagonal cutoff. Match by gate
	// range: the verdicts were computed from this same plan.
	emulate := make(map[[2]int]bool, len(sel.Verdicts))
	for _, v := range sel.Verdicts {
		emulate[[2]int{v.Lo, v.Hi}] = v.Emulate
	}
	plan = plan.Filter(func(op *recognize.Op) bool {
		return emulate[[2]int{op.Lo, op.Hi}]
	}, "auto cost model: fused gate path predicted faster")
	x, err := finishCompile(c, resolved, plan, &sel)
	if err != nil {
		return nil, err
	}
	sel.priceFill(x, m)
	return x, nil
}

// finishCompile is the pipeline's shared back half: lowerability
// filtering, then fusion and placement scheduling per gate segment. Both
// the explicit and the auto path end here, so compiled executables are
// identical however the target was chosen.
func finishCompile(c *circuit.Circuit, t Target, plan *recognize.Plan, sel *Selection) (*Executable, error) {
	x := &Executable{NumQubits: c.NumQubits, NumGates: c.Len(), Target: t, Selection: sel}

	// Noise pass: resolve the circuit's error model into insertion points.
	// A recognised op with a point before its last gate returns to gate
	// level — a monolithic shortcut has no gates to replay a mid-range
	// strike through — and its gates then fuse like any other segment;
	// ops struck only after their last gate keep their shortcuts.
	noise := resolveNoise(c)
	x.Noise = noise
	if noise != nil {
		plan = plan.Filter(func(op *recognize.Op) bool {
			return len(noise.PointsIn(op.Lo, op.Hi-1)) == 0
		}, "noise insertion inside the region; gate-level")
	}

	// Pass 3: lowerability (a Generic plan holds no ops).
	n, L, P := t.NumQubits, t.LocalQubits(), t.Nodes
	plan = plan.Filter(func(op *recognize.Op) bool {
		_, ok := cluster.Lowerable(op, n, L, P)
		return ok
	}, "no distributed lowering; gate-level")
	x.Skipped = plan.Skipped

	// Passes 4+5: fusion and placement scheduling per gate unit, gate
	// segments split where the noise plan asks (NoisePlan.splitSegment:
	// after every hard point, and where a unit's expected replay cost
	// reaches one sweep).
	for _, seg := range plan.Segments {
		if seg.Op != nil {
			sub, _ := cluster.Lowerable(seg.Op, n, L, P)
			if err := x.addOpUnit(seg.Op, sub, seg.Lo, seg.Hi); err != nil {
				return nil, err
			}
			continue
		}
		err := noise.splitSegment(seg.Lo, seg.Hi, func(lo, hi int) error {
			return x.addGateUnit(c.Gates[lo:hi], lo, hi)
		})
		if err != nil {
			return nil, err
		}
	}
	if err := x.closeCarry(); err != nil {
		return nil, err
	}
	return x, nil
}

// addOpUnit appends a recognised-shortcut unit, maintaining the summary
// counters. An op the product prefix cannot absorb ends its span first.
// It is shared by Compile and the artifact decoder (codec.go), so both
// construct identical executables.
func (x *Executable) addOpUnit(op *recognize.Op, substrate string, lo, hi int) error {
	if x.carry != nil && !x.carry.absorb(len(x.Units), op) {
		if err := x.closeCarry(); err != nil {
			return err
		}
	}
	x.Units = append(x.Units, Unit{Op: op, Substrate: substrate, Lo: lo, Hi: hi})
	x.EmulatedGates += hi - lo
	return nil
}

// addGateUnit appends a gate-segment unit, lowering it for the target:
// the fusion plan at the effective width and its placement schedule at
// the target's shard width (on one node, L = n: every op local, no remap)
// — deterministic pure functions of (gates, target), which is what lets
// the artifact decoder rebuild them instead of shipping them on the wire.
// The first unit of a noise-free executable opens the product prefix's
// carry (prefix.go), and while it is open a gate unit only grows it: the
// unit is planned when the carry closes, and not at all when the prefix's
// span takes it. The Generic baseline replays the raw gate stream and gets
// none of it.
func (x *Executable) addGateUnit(gs []gates.Gate, lo, hi int) error {
	u := Unit{Gates: gs, Lo: lo, Hi: hi}
	if x.Target.Kind != Generic {
		if len(x.Units) == 0 && x.Noise == nil {
			x.carry = newCarry(x.NumQubits)
		}
		if x.carry != nil {
			x.carry.addGates(len(x.Units), gs, lo)
		} else if err := x.planUnit(&u); err != nil {
			return err
		}
	}
	x.Units = append(x.Units, u)
	return nil
}

// closeCarry ends the product prefix's carry once the lowering has
// appended the units it may span: unit 0 takes the prefix, when the cost
// model says the fill pays, with the span's remainder for its plan, and
// every gate unit the carry held back past the span is planned on its own.
// Compile and Decode call it after their last unit.
func (x *Executable) closeCarry() error {
	c := x.carry
	if c == nil {
		return nil
	}
	x.carry = nil
	L, w := x.Target.LocalQubits(), int(x.Target.effectiveFuseWidth())
	held := len(x.Units)
	start := 0
	if p, rest := x.productPrefix(c, L, w); p != nil {
		u := &x.Units[0]
		u.Prefix = p
		u.Fused = x.countFused(fuse.NewOf(rest, w))
		sched, err := cluster.BuildSchedule(u.Fused, x.NumQubits, L, true)
		if err != nil {
			return err
		}
		x.setSched(u, sched)
		start = p.End
	}
	for k := start; k < held; k++ {
		if u := &x.Units[k]; u.Op == nil {
			if err := x.planUnit(u); err != nil {
				return err
			}
		}
	}
	return nil
}

// planUnit gives gate unit u its own lowering (lowerSegment).
func (x *Executable) planUnit(u *Unit) error {
	plan, sched, err := lowerSegment(u.Gates, x.NumQubits, x.Target.LocalQubits(), int(x.Target.effectiveFuseWidth()))
	if err != nil {
		return err
	}
	u.Fused = x.countFused(plan)
	x.setSched(u, sched)
	return nil
}

// lowerSegment plans a gate segment on its own: the fusion plan at width
// w and its placement schedule for n qubits in L-qubit shards.
func lowerSegment(gs []gates.Gate, n, L uint, w int) (*fuse.Plan, *cluster.Schedule, error) {
	plan := fuse.New(&circuit.Circuit{NumQubits: n, Gates: gs}, w)
	s, err := cluster.BuildSchedule(plan, n, L, true)
	return plan, s, err
}

// setSched attaches a gate unit's schedule, adding its rounds and remaps
// to the summary counts.
func (x *Executable) setSched(u *Unit, s *cluster.Schedule) {
	u.Sched = s
	x.PlannedRemaps += s.Remaps
	x.PlannedRounds += s.Rounds
}

// prefix returns the executable's product prefix, nil when it has none.
func (x *Executable) prefix() *Prefix {
	if len(x.Units) == 0 {
		return nil
	}
	return x.Units[0].Prefix
}

// countFused adds a fusion plan's fused blocks to the summary count.
func (x *Executable) countFused(plan *fuse.Plan) *fuse.Plan {
	for i := range plan.Blocks {
		if plan.Blocks[i].Fused() {
			x.FusedBlocks++
		}
	}
	return plan
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
	if p := x.prefix(); p != nil {
		r.Prefix = &PrefixReport{Gates: len(p.Index), Spanned: p.End, Absorbed: len(p.factors), Bytes: p.Fill.Bytes()}
		for _, fs := range p.factors {
			r.Prefix.Factors += len(fs)
		}
		for _, c := range p.Clusters {
			r.Prefix.Widths = append(r.Prefix.Widths, len(c))
		}
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
