// Package backend is the unified execution layer of the repository: one
// Backend interface, two engines behind it, and one explicit compile
// pipeline turning circuits into Executables either engine can run.
//
// The paper's central claim (Häner, Steiger, Smelyanskiy & Troyer, SC
// 2016) is that a single system should decide, per subroutine, between
// gate-level simulation and classical emulation. This package is that
// decision point made structural:
//
//	circuit ──Compile(c, Target)──► Executable ──Backend.Run──► Result
//
// Compile is a fixed pass sequence:
//
//  1. recognize — internal/recognize analyses the circuit for emulatable
//     subroutines (annotated regions and, in Auto mode, pattern-matched
//     QFT ladders, reversible arithmetic, phase oracles, diagonal runs),
//     each verified against its own gates where the support is small.
//  2. cost model — recognised regions are priced against their gate-level
//     alternative. On explicit targets this is a fixed diagonal cutoff
//     (recognize.DefaultDiagCutoffGates gates, the effective fusion
//     width); on auto targets (Target.Auto, below) it is a per-region
//     verdict from the calibrated cost model.
//  3. lowerability — on distributed targets, ops without a cluster
//     substrate (see internal/cluster.Lowerable) fall back to gate level,
//     recorded in the plan's Skipped list.
//  4. fuse — the residual gate segments are scheduled by the
//     commutation-aware fusion planner of internal/fuse at the Target's
//     width (clamped to the shard capacity on distributed targets).
//  5. placement — on distributed targets each fused segment additionally
//     gets a communication schedule (internal/cluster.BuildSchedule)
//     batching remote-qubit work into all-to-all remap rounds.
//
// # Noise
//
// A circuit with a NoiseModel compiles through one more pass, between the
// cost model and lowerability: the model is expanded into a NoisePlan —
// one insertion point per (gate, qubit, channel), in a fixed order that
// is the trajectory runner's draw order — and the plan shapes the unit
// schedule. Points come in two classes. A hard point (amplitude or phase
// damping) has a branch that depends on the state it strikes, so its gate
// is the last gate of its unit. A soft point (x, y, z, depolarizing) has
// a branch that depends on its variate alone, so the runner
// (internal/noise) knows before a unit runs whether anything fires inside
// it: it runs the unit whole if not, and replays the unit's gates one by
// one if so. Soft points force no boundary; instead a gate unit is closed
// where the expected cost of such a replay reaches one sweep of the state,
// which is what a boundary costs. With S the summed fire probability of
// the soft points on the k gates a unit holds, P(struck) <= S and a
// replay is about k sweeps, so the unit closes before the gate that would
// make S·(k+1) >= 1 — a function of the plan's probabilities only, with
// no knob: ~24 gates per unit at depolarizing 0.001, 7 at 0.01, one gate
// as p -> 1, no cut at p = 0, and for a damping-only model exactly one
// cut per struck gate. The replay is gate-level because fuse reorders
// commuting gates within a unit: a strike "after gate g" names a position
// in the source circuit, and the fused plan has no block boundary there.
// That is also why a recognised op with a point before its last gate
// returns to gate level (recorded in Skipped) — an op carries no gates —
// while an op struck only after its last gate keeps its shortcut.
//
// # Profile-driven selection
//
// A Target with Auto set defers every shape decision to two extra passes
// that run before the sequence above:
//
//   - profile — ProfileCircuit runs recognition once and summarises the
//     circuit as a Profile: width, depth, diagonal fraction, recognised
//     regions by kind, a branching-gate count, and the fusion
//     planner's estimated sweep units for the residual gate segments at
//     every candidate width. Profile prices, compile materialises once:
//     the estimates come from fuse.Cost, the planner's scheduler without
//     its matrix-building step, so the pass allocates no block unitary;
//     pass 4 then builds one fuse.Plan per gate segment, at the width
//     that won.
//   - select — SelectTarget prices a fixed candidate list (fused at
//     each AutoFuseWidths rung, cluster) with the calibrated constants of
//     internal/perfmodel and picks the cheapest; for each recognised
//     region it also rules emulate-vs-fuse by predicted time, replacing
//     the static diagonal cutoff. A fused rung w > 1 competes only where
//     its block matrix is no larger than the state, 4^w ≤ 2^n (2w ≤ n):
//     a wider block costs more to build, as a 2w-qubit sweep of its
//     gates, than running those gates once on the register, so the
//     profile skips its fuse.Cost pass and select lists it at +Inf
//     ("block matrix outgrows the register"). Explicit targets keep
//     FuseWidth as the caller's cap. The Generic baseline is never a
//     candidate: it is the reference the engines are measured against.
//
// Both passes are deterministic — pure functions of the circuit and the
// model constants (perfmodel.Active never times anything; calibration is
// an explicit offline step). The resolved concrete Target lands on the
// Executable, and the full Selection — chosen target, every candidate's
// predicted cost, per-region verdicts — rides along on Executable and
// Result so a choice is always explainable (qemu-run prints it).
//
// Compile is the only place an auto target is resolved: New rejects one,
// and the backend for an auto-compiled executable is New(x.Target) —
// the idiom qemu-run, the serving cache and the trajectory runner share.
//
// The resulting Executable is immutable and reusable across runs and
// across backends of the same Target shape. Backends are deliberately
// thin: per-engine Run logic is dispatch over the Executable's units —
// recognised ops apply their shortcut (locally via Op.Apply, distributed
// via Cluster.ApplyOp), gate segments run their fused plan or schedule.
//
// One interface, two engines: the local state vector runs the first two
// of the three kinds Target.Kind selects, the distributed cluster the
// third:
//
//   - Fused — the paper's simulator: structure-specialised kernels plus
//     same-target or multi-qubit block fusion (internal/fuse, statevec).
//   - Generic — the qHiPSTER-class structure-blind baseline: every gate
//     through the dense 2x2 kernel, the gate-by-gate reference.
//   - Cluster — the distributed engine: the register sharded across
//     emulated nodes, gate segments through the communication-avoiding
//     placement scheduler, recognised ops through the distributed
//     emulation substrates (four-step FFT, cluster-wide permutations,
//     shard-local diagonals).
//
// CopyState(dst, src) copies one backend's register into another of the
// same engine and width, in place: the local engine copies its state
// vector, the cluster every shard and its qubit placement, charging no
// communication (each node copies its own shard). It is a function over
// the two engines rather than an interface method, so Backend keeps the 11
// methods every engine implements; internal/noise uses it to fork
// trajectories off a shared noise-free prefix.
//
// Every Run returns a Result with the same shape everywhere: which
// regions were emulated (and on what substrate), how much was fused, the
// communication paid (rounds, messages, bytes — zero on single-node
// backends), and wall time. The repro facade's Open, Compile and OpenFor
// are the public entry points; this package is the machinery behind them.
package backend
