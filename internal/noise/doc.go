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
// Run replays the shared executable once per trajectory via
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
// Determinism is draw-for-draw: a master stream seeded from
// Options.Seed deals one sub-seed per trajectory up front, and every
// insertion point consumes exactly one uniform variate, in plan order,
// regardless of which branch fires and of where the unit boundaries
// fall — the boundaries decide only how early a variate is drawn, and a
// trajectory's stream has no other reader. The realisation of
// trajectory t is therefore a pure function of (Seed, t, plan) —
// independent of Options.Workers, statevec parallelism, the cluster
// shard count, the fusion width and the unit schedule, up to the last-ulp
// differences between a fused block and its gates — and the package is
// under the detrng lint contract like the engines it drives. The tests
// hold Run to a reference runner that applies the source gates one at a
// time on the Generic backend and draws at each point as it reaches it.
package noise
