// Package noise runs stochastic-trajectory (Monte-Carlo wavefunction)
// noisy simulation on compiled Executables.
//
// A density-matrix simulation of an n-qubit register costs 4^n
// amplitudes; the trajectory method keeps the 2^n state-vector engines
// and pays in repetition instead. Each trajectory evolves one pure
// state through the circuit, and at every noise insertion point samples
// a single Kraus branch of the attached channel — identity, a Pauli
// jump, or a damping jump with the exact ‖K ψ‖² branch weight — then
// renormalises. Averaged over trajectories, the sampled outcomes
// converge to the density-matrix diagonal (the measurement statistics
// of the open system); internal/noise/densref holds the brute-force
// 4^n reference the tests check this against.
//
// The insertion points come pre-resolved: backend.Compile expands a
// circuit's NoiseModel into the executable's NoisePlan, one point per
// (gate, qubit, channel) in a fixed order. The plan splits its points in
// two classes. A damping point is hard: its jump probability is
// γ·P(q=1) and its no-jump branch applies the non-unitary K₀ every time,
// so the state must be exactly "after its gate" when it strikes, and
// Compile ends a unit there. A Pauli point (x, y, z, depolarizing) is
// soft: its branch is a function of its variate alone, so which soft
// points fire in a unit is known before the unit runs — and at p = 0.001
// all but one in a thousand draw the identity. Soft points therefore cut
// nothing. Compile keeps a gate unit open until the expected cost of
// replaying it reaches one sweep of the state (backend.NoisePlan states
// the rule and its derivation; units come out ~24 gates long at
// depolarizing 0.001, one gate long as p → 1), and the units keep their
// fusion plans and communication schedules.
//
// Run replays the shared executable for every trajectory via
// Backend.Reset/RunUnits/ApplyGate — compile once, run many — so an
// N-trajectory batch through a serving cache costs a single compilation.
// Per unit a trajectory draws the unit's variates first, in plan order.
// If no point before the unit's last gate fires, the unit runs whole and
// its closing points strike after it: the common case, at the ideal
// plan's speed. If one fires, the unit's gates are replayed one by one
// through Backend.ApplyGate with every point striking after its own
// gate. The replay is gate-level and not block-level because the fusion
// planner reorders commuting gates across a unit: "after gate g" is a
// position in the source circuit that no block boundary of the fused
// plan corresponds to. Result.StruckUnits and Result.ReplayedGates say
// how often that happened. Recognised ops carry no gates to replay, so
// Compile returns an op with a point before its last gate to gate level.
//
// Trajectories share their noise-free prefix. Until its first noise event
// a trajectory is the ideal circuit — at depolarizing 0.001 on the
// benchmark's 810-point circuit, 45% of trajectories never leave it — so
// there is no reason to run those units once per trajectory. A worker
// first draws, for each trajectory it owns, the variates up to its
// divergence unit k: the first unit that holds a hard point (whose no-jump
// K₀ moves the state whatever the draw) or a point whose variate fires,
// len(Units) when none does. It sorts its trajectories stably by k and
// keeps a cursor, a second backend of the same shape that advances through
// the ideal units only as far as the next k. A trajectory copies the
// cursor's state (backend.CopyState), takes its stream at unit k's first
// draw and runs units k… the usual way; k = 0 is a Reset and every unit,
// and k = len(Units) samples the cursor directly. That is exact: the
// cursor runs the same units through the same kernels on the same target,
// so its state after unit k−1 is bit for bit what the trajectory would
// have computed, and every variate is still drawn once, in plan order,
// before Sample. Result.SharedUnits counts the units taken from the
// cursor. A worker therefore holds StatesPerWorker = 2 register states,
// which the serving path reserves against its memory budget. The
// trajectory workers are the chunks of one par.For, and the target's
// kernel workers are split between them (max(1, K/W)), so a kernel that
// fans out inside a trajectory asks par for no more chunks than its share
// of the machine.
//
// Determinism is draw-for-draw: a master stream seeded from
// Options.Seed deals one sub-seed per trajectory up front, and every
// insertion point consumes exactly one uniform variate, in plan order,
// regardless of which branch fires and of where the unit boundaries
// fall — the boundaries decide only how early a variate is drawn, and a
// trajectory's stream has no other reader. The realisation of
// trajectory t is therefore a pure function of (Seed, t, plan) —
// independent of Options.Workers, statevec parallelism, the node count,
// the fusion width and the unit schedule, up to the last-ulp differences
// between a fused block and its gates — and the package is under the
// detrng lint contract like the engine it drives. Every served target
// runs on that one engine, the cluster (a single-node target is the
// cluster at P = 1), whose per-trajectory calls — RunUnits, ApplyGate,
// ApplyKraus, Probability, Reset, CopyState, Sample — allocate nothing of
// their own on one node or several (a shard kernel that fans out over a
// large state allocates its chunk closure, as on one state vector). The
// tests hold Run to a reference runner that
// applies the source gates one at a time on the Generic reference replay,
// which shares no dispatch with the cluster, and draws at each point as
// it reaches it.
package noise
