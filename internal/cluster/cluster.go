package cluster

import (
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sync/atomic"

	"repro/internal/fft"
	"repro/internal/fuse"
	"repro/internal/gates"
	"repro/internal/par"
	"repro/internal/statevec"
)

// Stats accumulates communication and work counters across a run.
type Stats struct {
	// BytesSent is the total payload crossing the (emulated) network.
	BytesSent atomic.Uint64
	// Messages counts point-to-point transfers (coalesced: one message per
	// (src, dst) node pair per collective or exchange).
	Messages atomic.Uint64
	// Exchanges counts full pairwise shard exchanges (the unit Eq. 6's
	// log2(P) communication term is written in).
	Exchanges atomic.Uint64
	// AllToAlls counts collective steps in which every node may talk to
	// every other node: the Fourier lowering's node-bit remap and its
	// computing exchange (Eq. 5's third is the Canonicalize of whatever
	// next reads canonical order; sampling reads under the placement and
	// pays none), emulated
	// permutations, and the execution engine's placement remaps.
	AllToAlls atomic.Uint64
	// Rounds counts communication rounds: BSP supersteps in which the
	// network is used at all. A gate-by-gate exchange is one round per
	// communicating gate; a batched remap is one round regardless of how
	// many deferred remote-qubit gates it unblocks. This is the scheduler's
	// objective function.
	Rounds atomic.Uint64
}

// Snapshot returns a plain-value copy of the counters.
func (s *Stats) Snapshot() StatsSnapshot {
	return StatsSnapshot{
		BytesSent: s.BytesSent.Load(),
		Messages:  s.Messages.Load(),
		Exchanges: s.Exchanges.Load(),
		AllToAlls: s.AllToAlls.Load(),
		Rounds:    s.Rounds.Load(),
	}
}

// StatsSnapshot is a point-in-time copy of Stats.
type StatsSnapshot struct {
	BytesSent uint64
	Messages  uint64
	Exchanges uint64
	AllToAlls uint64
	Rounds    uint64
}

// Cluster is a P-node emulated machine holding an n-qubit state. Each node
// owns an L-qubit statevec.State shard; the engine tracks a logical→
// physical qubit placement so that remote (node-selecting) qubits can be
// made node-local in batched all-to-all remap rounds instead of per-gate
// shard exchanges.
type Cluster struct {
	// P is the node count (power of two).
	P int
	// L is the per-node (local) qubit count.
	L uint
	// NodeBits is log2(P).
	NodeBits uint
	// DiagonalOptimization enables the paper's communication-avoiding
	// treatment of diagonal gates (our simulator). The qHiPSTER-class
	// configuration turns it off and pays an exchange for every gate on a
	// non-local qubit.
	DiagonalOptimization bool

	// nodes are the per-node shards: L-qubit states whose kernels provide
	// the validation contract and fan out at each node's worker count.
	nodes []*statevec.State
	// scratch is the retired buffer set the all-to-all collectives gather
	// into and swap with the live shards (via AdoptAmplitudes), so a remap
	// reuses 16*2^n bytes instead of allocating them per call; nil until
	// the first collective.
	scratch [][]complex128

	// pos maps logical qubit → physical position: positions 0..L-1 index
	// bits inside a shard, positions L..n-1 select the node. The identity
	// placement (pos[q] == q) is the layout LoadState and Gather speak.
	pos []uint
	// fresh is set while the register holds |0...0> in the identity
	// placement, as New and Reset leave it: every path that writes the
	// state or moves the placement clears it, and CopyFrom copies it.
	// FillProduct requires it.
	fresh bool
	// blockPhys is applyBlock's scratch: the physical positions of the
	// block being executed.
	blockPhys [fuse.MaxWidth]uint
	// ident is the identity placement Canonicalize installs; srcOf, live,
	// ctl, the draw arrays and smp are the scratch of Remap, the movers
	// and the sampler's walk, ApplyGate, Sample and the multi-node
	// sampler; swapped and dft that of the four-step Fourier
	// lowering (fieldfft.go).
	ident     []uint
	srcOf     []uint
	swapped   []uint
	live      [][]complex128
	ctl       [64]uint
	draw      [1]float64
	drawn     [1]uint64
	moves     map[string]*movePlan
	diag      diagScratch
	smp       *blockSampler
	op        operands
	runBodyFn func(p int)
	dft       dftScratch

	// Stats tracks communication since New; callers diff Snapshots.
	Stats Stats
}

// operands holds what the superstep in flight works on. A superstep of
// the trajectory path hands each a body that captures nothing and reads
// its operands here, so it allocates nothing.
type operands struct {
	body func(c *Cluster, p int)

	// gate is the gate (or Kraus operator, in its Matrix) as the shards
	// see it, at physical positions; mask selects the nodes whose
	// node-selecting controls are set; bit is a shard position or a node
	// bit; want is the branch a mass reads; cmask the local controls of
	// an exchange.
	gate  gates.Gate
	mask  uint64
	bit   uint
	want  uint64
	cmask uint64
	scale complex128
	// pair is the update an exchanging node pair computes.
	pair func(c *Cluster, p0 int, old0, old1, s0, s1 []complex128)

	// block is the fused block in flight and phys the shard positions of
	// its qubits (or of a diagonal's local members); from is CopyFrom's
	// source; move and dst are the mover's plan and destination shards.
	block *fuse.Block
	phys  []uint
	from  *Cluster
	move  *movePlan
	dst   [][]complex128

	// product is the product state FillProduct writes.
	product *statevec.Product

	// plan, order and inverse are the Fourier transform a shard-local
	// field lowering runs, at physical bit `bit`; shares is how many
	// disjoint destination shares a move is split into.
	plan    *fft.Plan
	order   fft.Order
	inverse bool
	shares  int

	// sums holds one partial result per node.
	sums []float64
}

// minChunk is the fewest amplitudes a one-node collective (a move, the
// reflection) hands each worker: below it one worker does the whole
// shard, since a fan-out costs more than it saves.
const minChunk = 1 << 14

// New returns a cluster of p nodes holding the n-qubit basis state |0...0>.
// p must be a power of two with log2(p) <= n.
func New(n uint, p int) (*Cluster, error) {
	if p <= 0 || p&(p-1) != 0 {
		return nil, fmt.Errorf("cluster: node count %d is not a power of two", p)
	}
	nodeBits := uint(bits.TrailingZeros(uint(p)))
	if nodeBits > n {
		return nil, fmt.Errorf("cluster: %d nodes need at least %d qubits, have %d", p, nodeBits, n)
	}
	c := &Cluster{
		P:                    p,
		L:                    n - nodeBits,
		NodeBits:             nodeBits,
		DiagonalOptimization: true,
		fresh:                true,
	}
	c.nodes = make([]*statevec.State, p)
	// Each emulated node gets an even share of the real machine's
	// parallelism; on few nodes the shards' own fan-out recovers the full
	// hardware width.
	w := runtime.GOMAXPROCS(0) / p
	if w < 1 {
		w = 1
	}
	for i := range c.nodes {
		c.nodes[i] = statevec.NewZero(c.L)
		c.nodes[i].SetParallelism(w)
	}
	c.nodes[0].SetAmplitude(0, 1)
	c.pos = make([]uint, n)
	c.ident = make([]uint, n)
	for q := uint(0); q < n; q++ {
		c.pos[q], c.ident[q] = q, q
	}
	c.srcOf = make([]uint, n)
	c.swapped = make([]uint, n)
	c.live = make([][]complex128, p)
	c.moves = make(map[string]*movePlan)
	c.op.sums = make([]float64, p)
	c.runBodyFn = c.runBody
	return c, nil
}

// NumQubits returns the total register width.
func (c *Cluster) NumQubits() uint { return c.L + c.NodeBits }

// LocalSize returns the per-node amplitude count 2^L.
func (c *Cluster) LocalSize() uint64 { return uint64(1) << c.L }

// shard returns node p's amplitude slice.
func (c *Cluster) shard(p int) []complex128 { return c.nodes[p].Amplitudes() }

// SetNodeParallelism caps the worker count each node's shard kernels use:
// 1 forces serial per-node execution (the parallelism then comes from the
// node supersteps, eachNode), 0 restores the GOMAXPROCS default on
// every node. See statevec.State.SetParallelism.
func (c *Cluster) SetNodeParallelism(w int) {
	for _, st := range c.nodes {
		st.SetParallelism(w)
	}
}

// Placement returns a copy of the current logical→physical qubit map.
// pos[q] < L means logical qubit q is node-local; pos[q] >= L means it is
// a node-selecting (remote) qubit.
func (c *Cluster) Placement() []uint {
	return append([]uint(nil), c.pos...)
}

// LoadState scatters a full state vector across the shards and resets the
// placement to the identity.
func (c *Cluster) LoadState(st *statevec.State) error {
	if st.NumQubits() != c.NumQubits() {
		return fmt.Errorf("cluster: state has %d qubits, cluster %d", st.NumQubits(), c.NumQubits())
	}
	copy(c.pos, c.ident)
	c.fresh = false
	amps := st.Amplitudes()
	local := c.LocalSize()
	c.eachNode(func(p int) {
		copy(c.shard(p), amps[uint64(p)*local:(uint64(p)+1)*local])
	})
	return nil
}

// CopyFrom makes c's state a copy of src's: every shard and the placement,
// so a drifted layout stays drifted and the next schedule canonicalises
// it exactly as src's would. Each node copies its own shard, so the copy
// crosses no link and charges no communication. Unlike LoadState it keeps
// src's placement.
func (c *Cluster) CopyFrom(src *Cluster) error {
	if src.P != c.P || src.L != c.L {
		return fmt.Errorf("cluster: cannot copy a %d-node %d-qubit cluster into a %d-node %d-qubit one",
			src.P, src.NumQubits(), c.P, c.NumQubits())
	}
	copy(c.pos, src.pos)
	c.fresh = src.fresh
	c.op.from = src
	c.each(func(c *Cluster, p int) { c.nodes[p].CopyFrom(c.op.from.nodes[p]) })
	c.op.from = nil
	return nil
}

// State returns the register as one state vector. On one node that is
// the live shard, with the placement canonicalised first: a write through
// it is a write to the register, so the register no longer counts as
// fresh. On several nodes it is Gather's copy.
func (c *Cluster) State() *statevec.State {
	if c.P > 1 {
		return c.Gather()
	}
	c.Canonicalize()
	c.fresh = false
	return c.nodes[0]
}

// Gather assembles the distributed state into a single state vector in
// logical qubit order, whatever the current placement (testing and
// small-scale verification only): logical index bit q reads physical
// position pos[q], a move like any other, into the flat buffer. A
// reversed run at the bottom of the shards — a Fourier op's output order,
// physical j holding logical top-j — would make that move reverse low
// bits, at several times the cost of fft's blocked reversal (undoLowRun).
// So the move takes the run as it lies, into a buffer whose low top+1
// bits are the logical ones reversed, and one reversal of the buffer puts
// them in order. The shards and the placement are left as they were.
func (c *Cluster) Gather() *statevec.State {
	st := statevec.NewZero(c.NumQubits())
	amps := st.Amplitudes()
	local := c.LocalSize()
	flat := make([][]complex128, c.P)
	for p := range flat {
		flat[p] = amps[uint64(p)*local : (uint64(p)+1)*local]
	}
	m, top := c.lowRun()
	if m < 2 {
		c.moveBits(flat, c.pos)
		return st
	}
	srcOf := slices.Clone(c.pos)
	for q := uint(0); q <= top; q++ {
		srcOf[q] = c.pos[top-q]
	}
	c.moveBits(flat, srcOf)
	fft.Reverse(amps, top+1, st.Workers())
	return st
}

// grabScratch returns a full set of per-node destination buffers for a
// collective, reusing the retired set when one exists. The contents are
// whatever the last collective left: every user assigns each element.
func (c *Cluster) grabScratch() [][]complex128 {
	if c.scratch == nil {
		c.scratch = make([][]complex128, c.P)
		local := c.LocalSize()
		for i := range c.scratch {
			c.scratch[i] = make([]complex128, local)
		}
	}
	return c.scratch
}

// installShards makes next (obtained from grabScratch) the live shard set
// and retires the old amplitude buffers as the next collective's scratch.
func (c *Cluster) installShards(next [][]complex128) {
	for p, st := range c.nodes {
		c.scratch[p] = st.AdoptAmplitudes(next[p])
	}
}

// eachNode runs fn(nodeID) for every node through par.For and waits — the
// BSP superstep primitive every collective below is built from. A node's
// kernels may fan out again inside fn.
func (c *Cluster) eachNode(fn func(p int)) {
	par.For(c.P, fn)
}

// each is eachNode for the per-gate, per-block and per-sample supersteps:
// body captures nothing — it is a method expression or a literal that
// reads its operands from c.op — and par.For gets the func value bound
// once in New, so the superstep allocates nothing where eachNode
// allocates the closure it is handed.
func (c *Cluster) each(body func(c *Cluster, p int)) {
	c.op.body = body
	par.For(c.P, c.runBodyFn)
}

func (c *Cluster) runBody(p int) { c.op.body(c, p) }

// sumNodes returns the per-node partial results of the last reducing
// superstep, summed in node order.
func (c *Cluster) sumNodes() float64 {
	var total float64
	for _, v := range c.op.sums {
		total += v
	}
	return total
}
