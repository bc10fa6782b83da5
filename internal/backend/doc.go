// Package backend is the unified execution layer of the repository: one
// Backend interface, one engine behind it for every served target, and
// one explicit compile pipeline turning circuits into Executables.
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
//     verdict from the cost model.
//  3. lowerability — every op gets its substrate from
//     internal/cluster.Lowerable; one without a substrate on the
//     target's node count falls back to gate level, recorded in the
//     plan's Skipped list (on one node every op has one).
//  4. fuse — the residual gate segments are scheduled by the
//     commutation-aware fusion planner of internal/fuse at the Target's
//     width, clamped to the shard (the register, on one node).
//  5. placement — each fused segment gets a communication schedule
//     (internal/cluster.BuildSchedule at the shard width L) batching
//     remote-qubit work into all-to-all remap rounds; at L = n, one
//     node, it is one remap-free step.
//
// # The product prefix
//
// Between passes 3 and 4 a noise-free cluster executable whose first unit
// is a gate segment grows a product prefix over a span of units [0, End)
// (prefix.go): the gates of the span's segments whose qubits no earlier
// remainder gate touched, grouped by interaction into clusters of at most
// ⌊n/2⌋ qubits, and every recognised op of the span, whose support joins
// the clusters it touches as a gate's qubits would. A diagonal that is a
// product of diagonals on disjoint qubit blocks (recognize.Op.Factors: a
// mixed-product test at base point 0 proposes the blocks, an exact rebuild
// of the table at 1e-12 proves them) joins factor by factor, all or none,
// so four CZs on disjoint pairs join four pair clusters, not one of eight
// qubits; the rebuild runs only once every proposed block has joined. An
// op (or a factor) that would pass the cap or touch a closed qubit ends
// the span before it, and the span
// stops at the last unit that joined the prefix. Everything in the prefix
// commutes past every remainder gate before it, so the span is the prefix
// and then the remainder. The carry is taken when fuse.FillCost plus the
// remainder's fuse.CostOf is below the span's segments' fuse.Cost plus one
// sweep per absorbed op; then the lowering simulates each cluster's vector
// once (an op, or each factor on its own cluster, through
// recognize.Op.ApplyOn on the cluster's compact register: as the op, never
// as its source gates, which Decode does not have, and Decode derives the
// same factors from the decoded table), lays their product out for the
// shards (statevec.Product), and
// plans the span's remainder alone (fuse.NewOf) into unit 0's Fused and
// Sched. The span's other gate units are not planned at all.
// Run reads the cluster's fresh flag (set by New and Reset, cleared by
// every write, kept by CopyState): a fresh register, in a call that runs
// the whole span, gets the fill and then the remainder's schedule; any
// other register, or a call that stops inside the span, runs each spanned
// unit as its own lowering — a gate unit its whole-segment plan, planned
// once on first use (Prefix.unitSched), an op whole through ApplyOp. The Generic
// reference, an executable with a noise plan and an executable whose first
// unit is an op never hold a prefix.
// Decode rebuilds it through addGateUnit, addOpUnit and closeCarry as
// Compile does, so artifacts and fingerprints do not see it;
// VerifyExecutable checks it (the span within the unit list, disjoint
// clusters within the cap, each prefix gate and each spanned op — each of
// its factors, for one that splits — inside one cluster and clear of every
// earlier remainder gate, the remainder exactly
// the span's other gates in source order, unit-norm cluster states, no plan
// on a spanned unit past the first). The auto selector ranks candidates
// without it and takes what the fill saves — the span's gate units' share
// and its absorbed ops' modelled cost — off the chosen one's predicted
// cost (Selection.Cost).
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
//     each AutoFuseWidths rung, cluster) with the constants of
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
// model constants (perfmodel.Active is one fixed table: it reads no
// file and times nothing). The resolved concrete Target lands on the
// Executable, and the full Selection — chosen target, every candidate's
// predicted cost, per-region verdicts — rides along on Executable and
// Result so a choice is always explainable (qemu-run prints it).
//
// Compile is the only place an auto target is resolved: New rejects one,
// and the backend for an auto-compiled executable is New(x.Target) —
// the idiom qemu-run, the serving cache and the trajectory runner share.
//
// The resulting Executable is immutable and reusable across runs and
// across backends of the same Target shape. The backend is deliberately
// thin: Run is dispatch over the Executable's units — recognised ops
// through Cluster.ApplyOpSum, gate segments through RunSchedule (after the
// product prefix's fill on a fresh register). Within one RunUnits window
// it pays one pass per emulated step where the lowerings allow: two
// adjacent op units that compose (an arithmetic op with a field-add
// kernel beside a diagonal table, both shard-local) run as one sweep
// (Cluster.ApplyOpPair), and the window carries the register's amplitude
// sum in a loop-local variable — known after a fill whose remainder is
// empty, kept by a phase flip and by a reflection whose next unit is a
// flip or a reflection, lost at any other unit — so a reflection it
// reaches runs one pass. Neither is a new trust claim: the composed sweep
// is the two ops bit for bit, and the carried sum only skips a pass that
// would recompute it. A window that cuts a pair or a
// chain runs them apart; Result counts the pairs composed
// (ComposedPairs) and the reflections run on a carried sum (CarriedSums).
//
// One interface, one engine. The paper's emulator has one machine model —
// gate work through bandwidth-bound kernels on node-local amplitudes, a
// recognised subroutine as one pass, on a distributed register one global
// permutation — and every target the system serves runs on it, the
// cluster of internal/cluster:
//
//   - Cluster — the register sharded across Nodes emulated nodes, gate
//     segments through the communication-avoiding placement scheduler,
//     recognised ops through the substrate Lowerable names: the
//     distributed Fourier lowering (two all-to-alls, its output order
//     left in the placement for the next Canonicalize, which pays Eq.
//     5's third), cluster-wide permutations, shard-local diagonals,
//     or, for an op whose support lies in node-local positions, Op.Apply
//     on every shard as on one state (substrate "statevec").
//   - Fused — the paper's simulator, and only a name: normalize spells
//     it Cluster, and Nodes picks the node count under either name, so
//     {Kind: Fused, Nodes: P} and {Kind: Cluster, Nodes: P} compile to
//     one artifact under one fingerprint. Nodes 0 or 1 is one node: the
//     same lowerings at P = 1 — a Fourier op runs one butterfly network
//     over the shard and leaves its output order in the placement (a
//     transform and its inverse pay no reordering pass), reflections and
//     diagonals run placement-free, arithmetic runs as Op.Apply on the one
//     shard — schedules never remap nor canonicalise, nothing is charged
//     to a network, and State returns the live shard.
//   - Generic — the qHiPSTER-class structure-blind baseline: every gate
//     replayed through the dense 2x2 kernel of one state vector. It is a
//     reference to measure against, not a served engine: it shares no
//     dispatch with the cluster, so a test or benchmark oracle built on
//     it checks the engine against independent code.
//
// CopyState(dst, src) copies one backend's register into another of the
// same engine and width, in place: the cluster every shard and its qubit
// placement, charging no communication (each node copies its own shard),
// the Generic reference its state vector. It is a function rather than an
// interface method, so Backend keeps the 11 methods every backend
// implements; internal/noise uses it to fork trajectories off a shared
// noise-free prefix.
//
// Every Run returns a Result with the same shape everywhere: which
// regions were emulated (and on what substrate), how much was fused, the
// communication paid (rounds, messages, bytes — zero on one node), and
// wall time. The repro facade's Open, Compile and OpenFor
// are the public entry points; this package is the machinery behind them.
package backend
