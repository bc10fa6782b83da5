// Package cluster emulates a distributed-memory machine running a sharded
// state-vector simulation — the substitute for the paper's 6400-node TACC
// Stampede system — with a communication-avoiding execution engine on top.
// Each emulated node owns an L-qubit statevec.State shard (2^L contiguous
// amplitudes), executes its local work through the structure-specialised,
// pool-parallel statevec kernels, and communicates through an accounted
// in-process network.
//
// # Qubit placement and the scheduler
//
// The engine separates logical qubits from physical positions: positions
// 0..L-1 address bits inside a shard, positions L..n-1 select the node.
// Gates whose (physical) target is node-local never communicate; diagonal
// gates never communicate anywhere (every node owns its amplitudes' phase
// factors whatever the placement — the paper's Figure 4 optimisation,
// toggled by DiagonalOptimization). Only a non-diagonal gate whose target
// sits in a node-selecting position needs amplitudes from another node.
//
// The naive engine (ApplyGate / Run) pays for each such gate immediately
// with one pairwise shard-exchange round — the qHiPSTER-class behaviour.
// The scheduled engine (BuildSchedule / RunSchedule)
// instead walks the circuit post-fusion (consuming internal/fuse plans:
// fused blocks whole, unfused runs gate by gate), and whenever the stream
// blocks on remote qubits it plans ONE all-to-all placement remap whose
// incoming local set unblocks as many upcoming ops as fit in L positions,
// filling spare slots Belady-style with the qubits needed soonest. The
// circuit thus executes as long communication-free stretches separated by
// a minimal number of batched remap rounds — Stats.Rounds counts them,
// and the qemu-bench cluster experiment compares both engines.
//
// # Exchange contracts
//
// Every collective that moves the state — a placement remap (Remap,
// Canonicalize, the field remaps of the Fourier lowerings), each of the
// four-step FFT's three transposes (transposing a 2^a x 2^b row-major
// matrix is the index-bit rotation by b), Gather under a drifted
// placement — is a permutation of index bits, and one kernel performs
// them all (move.go): "destination position p reads source position
// srcOf[p]". It has two regimes, chosen from the bit map alone:
//
//   - the low k >= 2 positions are unchanged: the state moves in runs of
//     2^k contiguous amplitudes, one source-index computation and one
//     copy per run — a whole shard per copy when only node positions
//     move. The scheduler's remaps exchange node positions with a few
//     local ones and mostly have this shape;
//   - otherwise (a no-swap QFT's bit reversal, the transposes): a tiled
//     pass in the manner of fft's blocked bit reversal. A tile spans the
//     destination's low 5 positions and the destination positions that
//     feed the source's low 5, so both sides touch memory in contiguous
//     512-byte rows and the scattered accesses land in a 16 KiB buffer on
//     the stack; tiles are visited in an order that keeps neighbours
//     close on both sides.
//
// Either way each amplitude is read once and written once, at a small
// multiple of what copying the shards costs (BenchmarkMoveBits beside
// cluster.exchange_ns_per_amp). Collectives gather into a retired scratch
// buffer set and swap it with the live shards (statevec.AdoptAmplitudes),
// so steady-state communication allocates nothing but the move's index
// tables. Accounting is computed from the bit map, not counted per
// amplitude (moveTraffic): a source node bit fed by a local destination
// position takes both values inside every destination shard, one fed by a
// node position is fixed per destination node, which gives the senders
// and the volume per (src, dst) pair in closed form. BytesSent is charged
// for every amplitude that changes nodes, Messages once per communicating
// pair, AllToAlls per collective and Rounds per communication superstep.
// The pairwise exchange of the naive engine charges both shards' bytes,
// two messages and one Exchange per pair, and one Round per gate.
//
// # Probability and sampling
//
// Probability, Sample and SampleMany run cluster-wide without gathering:
// every node reduces its shard on its own worker pool (the statevec
// parallelReduce machinery), and only the P partial scalars cross node
// boundaries.
// Sampling canonicalises the placement so outcomes are logical basis
// indices resolved in the same CDF order as the single-node sampler.
//
// # Validation contract
//
// Gate application enforces the statevec kernel validation contract on
// logical indices before any routing: out-of-range targets or controls
// and control-equals-target panic with the identical kernel messages,
// whether the offending qubit would have been shard-local or
// node-selecting, and before any amplitude is touched.
//
// # Emulation substrates
//
// Recognised subroutines (internal/recognize ops) lower onto the cluster
// through Lowerable/ApplyOp — the distributed half of the emulation
// dispatch the unified backend (internal/backend) runs:
//
//   - a full-register Fourier op executes as the distributed four-step
//     FFT (three all-to-all transposition rounds — Eq. 5's "3"),
//     EmulateQFT being the direct entry point; the noswap variants'
//     bit reversal is a placement relabelling costing nothing;
//   - a Fourier field of width <= L executes shard-locally after one
//     remap makes the field node-local;
//   - arithmetic ops run through ApplyPermutation — the Section 4.2
//     shortcut, one all-to-all for the whole subroutine: every node
//     writes each of its amplitudes once, straight to its destination,
//     and the traffic charged is the count of indices whose node changes;
//   - diagonal ops multiply shards in place: a diagonal run goes through
//     its table exactly as a fused diagonal block does (node-selecting
//     members fix a reduced table per node, the shard applies it with
//     ApplyDiagN or ApplyDiagTable), as does the field FFT's twiddle (one
//     entry per field value), and a phase flip negates the matching
//     amplitudes; the Grover diffusion (ReflectUniform) needs one scalar
//     allreduce.
//
// The permutation and FFT collectives speak the canonical layout and
// restore it (one extra remap round at most) when the gate engine left
// the placement rotated; the diagonal and reflection paths run under any
// placement.
package cluster
