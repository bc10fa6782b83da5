// Package cluster emulates a distributed-memory machine running a sharded
// state-vector simulation — the substitute for the paper's 6400-node TACC
// Stampede system — with a communication-avoiding execution engine on top.
// Each emulated node owns an L-qubit statevec.State shard (2^L contiguous
// amplitudes), executes its local work through the structure-specialised,
// parallel statevec kernels, and communicates through an accounted
// in-process network.
//
// # One node is the single-node engine
//
// internal/backend opens every served target on a Cluster, a single-node
// one on one node, whose shard is the whole register, and one node takes
// the lowerings of several at P = 1. There schedules are one remap-free
// step that runs through the placement as it stands; a Fourier op runs
// one butterfly network over the shard in the order the placement gives
// and leaves its output order there (the register's bit reversal after a
// QFT of natural-order input, undone by the inverse's network); the
// reflection and the diagonals run placement-free, and only an
// arithmetic op runs as Op.Apply on the shard (substrate "statevec")
// after canonicalising. State returns the live shard, canonicalised
// first, and sampling is the shard's own. A move on one node crosses no
// link: it charges nothing and splits over the shard's workers. On
// several nodes the "statevec" substrate serves an arithmetic op whose
// support lies below L: each shard permutes its own amplitudes.
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
// # The fresh register and the product fill
//
// A cluster is fresh while it holds |0...0> in the identity placement, as
// New and Reset leave it: every path that writes the state or moves the
// placement (ApplyGate, ApplyKraus, ApplyOp and the collectives under it,
// RunSchedule, Remap, ApplyPermutation, LoadState, the one-node State —
// the caller may write through it) clears the flag, and CopyFrom copies it
// from its source; reads (Probability, sampling, a multi-node State's
// gathered copy) keep it. FillProduct turns a fresh register into a
// product state (statevec.Product: a fresh run's product prefix, which in
// internal/backend may span several units and the recognised ops among
// them) by one superstep in which every node writes its own shard at its
// worker count — no message, no remap, and only the amplitudes the
// product makes nonzero, since the rest already hold the zero a fresh
// register has. It refuses a register that is not fresh; the backend runs
// each spanned unit's own lowering there instead. The first fill of a
// product has it build, once, what a fill writes from: every cluster that
// lies wholly inside a row multiplied into one in-row factor, so a layer
// of one-qubit clusters is written once per amplitude, not expanded
// cluster by cluster.
//
// # One pass per step
//
// Two lowerings let a caller that runs ops back to back pay one pass where
// they would pay two. ApplyOpSum carries the register's amplitude sum
// (Sum) from op to op: a fresh fill knows it (statevec.Product.Sum, the
// product of the clusters' sums), a phase flip takes off twice what it
// negates, and a reflection with the sum known runs its update pass alone,
// accumulating the sum it leaves as it writes when the caller's next op
// carries it on; every other op leaves it unknown. The sum lives with the
// caller, never on the register.
// ApplyOpPair runs an arithmetic op with a field-add kernel and a
// diagonal table, adjacent in either order and both below L, as one
// statevec.State.ApplyFieldAddDiag sweep per shard, which is the two ops
// apart bit for bit.
//
// # Exchange contracts
//
// Every collective that moves the state — a placement remap (Remap,
// Canonicalize, the Fourier lowering's remap), Gather under a drifted
// placement — is a permutation of index bits, and one kernel performs
// them all (move.go): "destination position p reads source position
// srcOf[p]". The one exception is the Fourier lowering's computing
// exchange, which moves what its swap back would and computes on the way
// (fieldfft.go). The mover has two regimes, chosen from the bit map
// alone:
//
//   - the low k >= 2 positions are unchanged: the state moves in runs of
//     2^k contiguous amplitudes, one source-index computation and one
//     copy per run — a whole shard per copy when only node positions
//     move. The scheduler's remaps exchange node positions with a few
//     local ones and mostly have this shape, and so does the Fourier
//     lowering's swap of a field's node bits with the top of the shard;
//   - otherwise (a bit reversal a noswap relabel left, the Canonicalize
//     of the output order a four-step Fourier op leaves — a rotation by
//     the field's node bits once its reversed bits are undone): a tiled
//     pass in the manner of fft's blocked bit reversal. A tile spans the
//     destination's low 5 positions and the destination positions that
//     feed the source's low 5, so both sides touch memory in contiguous
//     512-byte rows and the scattered accesses land in a 16 KiB buffer on
//     the stack; tiles are visited in an order that keeps neighbours
//     close on both sides.
//
// A remap or Canonicalize that finds a descending run of logical qubits
// at physical [0, m) — the field a shard-local Fourier op's DIF network
// leaves reversed, or the reversed k2 bits of a four-step — and does not
// keep it there undoes it first, every shard in place with fft.Reverse,
// a blocked reversal several times cheaper than letting the tiled move
// reverse it (BenchmarkMoveBits' one-node rows and its fourier-output
// row), with no round charged; when that was the only drift, nothing
// else moves.
//
// Either way each amplitude is read once and written once, at a small
// multiple of what copying the shards costs (BenchmarkMoveBits beside
// cluster.exchange_ns_per_amp). Collectives gather into a retired scratch
// buffer set and swap it with the live shards (statevec.AdoptAmplitudes),
// and a move's index tables are planned once per bit map and kept
// (planFor), so steady-state communication allocates nothing. Accounting is computed from the bit map, not counted per
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
// Probability, Sample and SampleMany run cluster-wide without gathering
// and under any placement. Probability reduces every shard in its own
// chunks (the statevec parallelReduce machinery), and only the P partial
// scalars cross node boundaries. Sampling on several nodes reads the
// state where it lies: a block is 2^b consecutive logical indices (b = 6,
// raised with n to keep 2^(n-b) <= 2^14 blocks), every node sums its
// shard into a partial table of block masses through the placement (in
// runs when the in-block positions are the shard's low ones, across
// segments when they are its top ones, as in the four-step's output
// order), the P tables are reduced (one round, (P-1)·2^(n-b)·8 bytes), and only the
// blocks that hold a draw are walked, in logical order, reading each
// weight on the node that holds it (a second round, 8 bytes per remote
// weight). Outcomes are logical basis indices resolved under the
// single-node contract (statevec.SampleSorted: same RNG consumption, same
// clamp) and the placement is left as it was. On one node sampling
// canonicalises (a relabel's reversal in place, no network) and is the
// single-node sampler.
//
// A trajectory calls the cluster per unit, per replayed gate and per
// noise point, and those calls allocate nothing: their supersteps go
// through each, whose bodies capture nothing, and their scratch and move
// plans live on the Cluster.
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
//   - every Fourier op runs through one lowering (fieldfft.go),
//     EmulateQFT being the direct entry point for the full register. A
//     field of width <= L executes shard-locally: where it lies when it
//     is ascending and node-local, as one network when it sits at
//     physical [0, w) (DIF on natural order, the placement then records
//     the field reversed; DIT on a recorded reversal, which it restores),
//     else after one remap makes it node-local. A wider one — the full
//     register on several nodes (substrate "four-step-fft") or a
//     mid-width field ("field-four-step-fft") — is the four-step FFT
//     split where the layout splits it: its node bits are swapped into
//     every shard (one all-to-all), and a computing exchange takes the
//     node-bit DFT and the twiddle on its way back (the second), after
//     which every shard runs one network over its own bits — DIF at
//     pos 0, leaving those bits reversed in the placement. The
//     output order stays in the placement, so Eq. 5's third all-to-all
//     is the Canonicalize of whatever next reads canonical order; the
//     noswap variants' bit reversal is one more placement relabelling
//     costing nothing;
//   - arithmetic ops run through ApplyPermutation — the Section 4.2
//     shortcut, one all-to-all for the whole subroutine: every node
//     writes each of its amplitudes once, straight to its destination,
//     and the traffic charged is the count of indices whose node changes;
//   - diagonal ops multiply shards in place: a diagonal run goes through
//     its table exactly as a fused diagonal block does (node-selecting
//     members fix a reduced table per node, the shard applies it with
//     ApplyDiagTable), and a phase flip negates the matching
//     amplitudes; the Grover diffusion needs one scalar allreduce, split
//     over the node's workers, and no round on one node — one pass on a
//     sum carried to it (ApplyOpSum), two otherwise.
//
// The permutation collective speaks the canonical layout and restores it
// (one extra remap round at most) when the gate engine or a Fourier op
// left the placement drifted; the Fourier lowering remaps from whatever
// placement it finds, the diagonal and reflection paths run under any
// placement, and a schedule with no remap whose ops are all node-local
// under the placement in force (every schedule on one node) runs under it
// without canonicalising.
package cluster
