// Package fuse schedules multi-qubit gate fusion: it rewrites a circuit
// into a sequence of execution blocks, where each block is either a single
// original gate or a dense 2^w x 2^w unitary absorbing a run of gates whose
// combined support fits in w qubits (w = the fusion width, typically 4-5).
//
// The paper's simulator already fuses runs of single-qubit gates on the
// same target so the 2^n-amplitude state vector is swept once per run
// instead of once per gate (Section 3.2). At 20+ qubits the sweep is
// memory-bound, so the same idea generalised to k-qubit neighbourhoods —
// the cache-blocking technique qHiPSTER-class simulators use — trades a
// few extra multiplies per amplitude for a large reduction in memory
// traffic. A width-w block holding g gates costs one sweep at 2^w complex
// multiplies per amplitude where the unfused run costs g sweeps; whenever
// g exceeds a handful the fused sweep wins on any machine whose DRAM is
// slower than its FMA units.
//
// The scheduler is greedy and commutation-aware. Scanning the gate list
// left to right it grows the current block while the union of gate
// supports stays within the width budget. A gate that does not fit is
// deferred — moved after the block — when that reordering is provably
// safe, using two sufficient commutation rules:
//
//   - gates on disjoint qubit sets commute;
//   - gates whose full matrices (controls included) are diagonal commute.
//
// Deferral is what lets the scheduler see through the interleavings real
// circuits produce: in a QFT the diagonal controlled-phase tails commute
// past the Hadamards of later targets, and in a brickwork circuit the
// rotations of far-away qubits commute past the current tile, so blocks
// keep filling instead of closing at the first foreign gate. Gates fused
// into a block after a deferral are checked to commute with every deferred
// gate they jump over, which keeps the rewrite exactly equivalent — the
// property test in fuse_test.go verifies amplitude-level agreement.
//
// Planning is two steps, and only the second one multiplies matrices.
//
// Scheduling forms the runs and decides, from structure alone — support
// masks, per-gate diagonality, GateCost and denseBlockCost — how each one
// executes. A closed run is lowered to the cheapest of three forms:
//
//   - a diagonal sweep (one multiply per amplitude via
//     statevec.ApplyDiagN), when the run is structurally diagonal and the
//     sweep beats the replay;
//   - a dense 2^w sweep, when the absorbed run amortises the 2^w
//     multiplies per amplitude it is priced at. It runs through
//     statevec.ApplyMatrixN when the run's gates connect all w qubits, and
//     through statevec.ApplyFactored — the same single sweep at the sum of
//     the factors' 2^k multiplies — when they fall into groups on disjoint
//     qubits and the block is the Kronecker product of the groups (see
//     Block.Factors). The price does not know the difference yet;
//   - a gate-by-gate replay with same-target runs pre-merged (the paper's
//     classic fusion), recursively re-scheduled at width-1 first so a wide
//     unprofitable region can still yield narrower profitable tiles.
//
// The structural diagonality rule: uncontrolled single-qubit gates on one
// qubit commute with every gate of the run that does not touch that
// qubit, so they are multiplied into one 2x2 per qubit, closed when a
// controlled gate touches the qubit or the run ends; the run is diagonal
// iff every such product and every controlled gate is diagonal on the
// state. Runs of phase/Rz/CR gates qualify, and so do H·H or H·X·H on one
// qubit with foreign gates in between. A product that is diagonal only
// through cancelling entangling gates (H·CX·H = CZ) does not: it is priced
// as the dense block the scheduler saw.
//
// Materialisation then builds the execution form of each block of the
// final schedule, once: the merged replay sequence, the 2^w diagonal
// (straight from the diagonal factors, O(2^w) per gate, never through a
// matrix), or the dense form. For that the run's interaction graph — a
// gate joins its controls and its target — is split into connected
// components over the block's local bits; single-qubit components are
// paired, an odd one joins the narrowest other part, and when two or more
// parts remain the block keeps one 2^k x 2^k matrix per part (Factors)
// instead of their 2^w x 2^w product: 45 of the 50 dense blocks of the
// benchmark's gate-sweep circuit are such products, two 4x4 factors each.
// A connected run is the one-factor case, a single Matrix (O(4^w) per
// gate); Block.Dense multiplies the factors out for tests. A run that was
// re-tiled or replayed never had a matrix. A dense product that comes out
// numerically diagonal — every factor diagonal — executes through the
// diagonal kernel, but its planned cost — and Stats().EstChosen — stays
// the dense one, so cost is a function of the schedule alone. Executors
// do not switch on the form: Block.Sweep does, for Plan.Apply and for
// internal/cluster alike.
//
// New is schedule + materialise. Cost is the same scheduler with the
// second step left out: it returns exactly New(c, w).Stats().EstChosen,
// bit for bit, allocating the gate stream and scan scratch only. Callers
// that compare widths (the auto backend's profile pass) price every
// candidate through Cost and call New once, at the width that won.
//
// Where the prices come from. GateCost and diagBlockCost are hand
// calibrations of the specialised kernels against an ApplyMatrix2 sweep.
// denseBlockCost is measured: it is the "sweeps" column of statevec's
// BenchmarkDenseBlock for the AVX2/FMA assembly body of the dense sweep —
// 0.8 / 1.1 / 1.9 sweeps at w = 2 / 3 / 4, where the scalar pure-Go body
// costs 1.75 / 5.7 / 10 — and the array's comment carries the numbers.
// There is one table for every host, so a plan, and with it an
// Executable's bytes and fingerprint, does not depend on where it was
// compiled. A host that falls back to the pure-Go body (no AVX2/FMA, or
// not amd64) therefore runs plans that are correct but fuse wider than its
// own kernel would want: at w=3 and above its dense sweep is about 5x
// dearer than priced. Per-host prices are the perfmodel table's job (ROADMAP
// item 3), as is a placement term: on the cluster engine a dense block
// needs its whole support node-local, so cheaper dense blocks buy fewer
// sweeps with more remap rounds, which these prices do not see.
//
// The fallback chain means a plan never regresses measurably below the
// classic Fuse path: fusion only engages where the model predicts a win,
// which matters on machines where the state still fits in cache and a
// dense block must win on arithmetic rather than memory traffic.
//
// Execution lives in the sim package (Options.FuseWidth) on top of the
// statevec.ApplyMatrixN / ApplyFactored / ApplyDiagN kernels.
package fuse
