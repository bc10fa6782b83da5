package cluster

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/fuse"
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
	// every other node: the FFT transpositions (Eq. 5's "3"), emulated
	// permutations, and the execution engine's placement remaps.
	AllToAlls atomic.Uint64
	// Rounds counts communication rounds: BSP supersteps in which the
	// network is used at all. A gate-by-gate exchange is one round per
	// communicating gate; a batched remap is one round regardless of how
	// many deferred remote-qubit gates it unblocks. This is the scheduler's
	// objective function.
	Rounds atomic.Uint64
	// Gates counts original gates applied: fused blocks and merged
	// replay runs are trued up to the gate count of the source circuit,
	// so naive and scheduled runs of one circuit report the same number.
	Gates atomic.Uint64
}

// Snapshot returns a plain-value copy of the counters.
func (s *Stats) Snapshot() StatsSnapshot {
	return StatsSnapshot{
		BytesSent: s.BytesSent.Load(),
		Messages:  s.Messages.Load(),
		Exchanges: s.Exchanges.Load(),
		AllToAlls: s.AllToAlls.Load(),
		Rounds:    s.Rounds.Load(),
		Gates:     s.Gates.Load(),
	}
}

// StatsSnapshot is a point-in-time copy of Stats.
type StatsSnapshot struct {
	BytesSent uint64
	Messages  uint64
	Exchanges uint64
	AllToAlls uint64
	Rounds    uint64
	Gates     uint64
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
	// the validation contract and run on each node's worker pool.
	nodes []*statevec.State
	// scratch is the retired buffer set the all-to-all collectives gather
	// into and swap with the live shards (via AdoptAmplitudes), so a remap
	// or transpose reuses 16*2^n bytes instead of allocating them per
	// call; nil until the first collective.
	scratch [][]complex128

	// pos maps logical qubit → physical position: positions 0..L-1 index
	// bits inside a shard, positions L..n-1 select the node. The identity
	// placement (pos[q] == q) is the layout LoadState and Gather speak.
	pos []uint
	// blockPhys is applyBlock's scratch: the physical positions of the
	// block being executed.
	blockPhys [fuse.MaxWidth]uint

	// Stats tracks communication since New; callers diff Snapshots.
	Stats Stats
}

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
	}
	c.nodes = make([]*statevec.State, p)
	// Each emulated node gets an even share of the real machine's
	// parallelism; on few nodes the shards' own worker pools recover the
	// full hardware width.
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
	for q := uint(0); q < n; q++ {
		c.pos[q] = q
	}
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
// one-goroutine-per-node supersteps), 0 restores the GOMAXPROCS default on
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

// identityPlacement reports whether logical and physical qubits coincide.
func (c *Cluster) identityPlacement() bool {
	for q, p := range c.pos {
		if uint(q) != p {
			return false
		}
	}
	return true
}

// LoadState scatters a full state vector across the shards and resets the
// placement to the identity.
func (c *Cluster) LoadState(st *statevec.State) error {
	if st.NumQubits() != c.NumQubits() {
		return fmt.Errorf("cluster: state has %d qubits, cluster %d", st.NumQubits(), c.NumQubits())
	}
	for q := range c.pos {
		c.pos[q] = uint(q)
	}
	amps := st.Amplitudes()
	local := c.LocalSize()
	c.eachNode(func(p int) {
		copy(c.shard(p), amps[uint64(p)*local:(uint64(p)+1)*local])
	})
	return nil
}

// Gather assembles the distributed state into a single state vector in
// logical qubit order, whatever the current placement (testing and
// small-scale verification only): logical index bit q reads physical
// position pos[q], a move like any other, into the flat buffer.
func (c *Cluster) Gather() *statevec.State {
	st := statevec.NewZero(c.NumQubits())
	amps := st.Amplitudes()
	local := c.LocalSize()
	flat := make([][]complex128, c.P)
	for p := range flat {
		flat[p] = amps[uint64(p)*local : (uint64(p)+1)*local]
	}
	c.moveBits(flat, c.pos)
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

// eachNode runs fn(nodeID) on one goroutine per node and waits — the BSP
// superstep primitive every collective below is built from.
func (c *Cluster) eachNode(fn func(p int)) {
	var wg sync.WaitGroup
	wg.Add(c.P)
	for p := 0; p < c.P; p++ {
		go func(p int) {
			defer wg.Done()
			fn(p)
		}(p)
	}
	wg.Wait()
}
