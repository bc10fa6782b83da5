package backend

import (
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/gates"
	"repro/internal/perfmodel"
	"repro/internal/recognize"
	"repro/internal/rng"
	"repro/internal/statevec"
)

// clusterBackend runs Executables on the emulated cluster — every served
// target, a single-node one on one node: gate segments through the
// communication-avoiding placement scheduler, recognised ops through the
// substrates cluster.Lowerable names.
type clusterBackend struct {
	t      Target
	c      *cluster.Cluster
	closed atomic.Bool
}

func newClusterBackend(t Target) (Backend, error) {
	c, err := cluster.New(t.NumQubits, t.Nodes)
	if err != nil {
		return nil, err
	}
	if t.Workers > 0 {
		c.SetNodeParallelism(t.Workers)
	}
	return &clusterBackend{t: t, c: c}, nil
}

func (b *clusterBackend) Target() Target { return b.t }

// Cluster exposes the underlying machine (placement, raw counters,
// Measure, LoadState).
func (b *clusterBackend) Cluster() *cluster.Cluster { return b.c }

// State returns the live state on one node and a gathered copy on
// several (Cluster.State).
func (b *clusterBackend) State() *statevec.State { return b.c.State() }

func (b *clusterBackend) Probability(q uint) float64 { return b.c.Probability(q) }
func (b *clusterBackend) ApplyGate(g gates.Gate)     { b.c.ApplyGate(g) }

func (b *clusterBackend) Sample(src *rng.Source) uint64 { return b.c.Sample(src) }
func (b *clusterBackend) SampleMany(k int, src *rng.Source) []uint64 {
	return b.c.SampleMany(k, src)
}

// Close implements the Backend contract: idempotent, returns nil, and
// never fences in-flight Runs — shards are garbage-collected, so closing
// only marks the backend retired and rejects future Runs.
func (b *clusterBackend) Close() error {
	b.closed.Store(true)
	return nil
}

// Reset returns the distributed register to |0...0> with the identity
// placement, reusing the shard allocations.
func (b *clusterBackend) Reset() { b.c.Reset() }

// ApplyKraus applies the 2x2 Kraus operator to logical qubit q across the
// shards, renormalises and returns the pre-normalisation branch mass.
func (b *clusterBackend) ApplyKraus(m gates.Matrix2, q uint) float64 {
	return b.c.ApplyKraus(m, q)
}

// RunUnits executes units [lo, hi) against the current distributed state:
// recognised ops lower through Cluster.ApplyOpSum, gate segments execute
// their precompiled communication schedules. A call that runs a product
// prefix's whole span [0, End) on a fresh register starts with the
// prefix's fill and runs the span's remainder; any other runs each spanned
// unit as its own lowering. Two adjacent op units of the window that
// compose (Cluster.ApplyOpPair) run as one pass, and a reflection whose
// amplitude sum the window has carried to it runs one pass; the results
// are the same either way, so a window that cuts a pair or a chain only
// runs them apart.
func (b *clusterBackend) RunUnits(x *Executable, lo, hi int) error {
	_, err := b.runUnits(x, lo, hi)
	return err
}

// runStats is what runUnits reports of how it ran a window.
type runStats struct {
	// filled is set when a product prefix filled.
	filled bool
	// composed counts the op pairs run as one pass, carried the
	// reflections run in one pass on a carried sum.
	composed, carried int
}

// runUnits is RunUnits, reporting how the window ran. The amplitude sum
// it carries is loop-local, what the unit before left: a fill whose
// remainder is empty knows it (the product of the clusters' sums),
// ApplyOpSum says what each op leaves, and every other unit leaves none.
func (b *clusterBackend) runUnits(x *Executable, lo, hi int) (st runStats, err error) {
	if b.closed.Load() {
		return st, ErrClosed
	}
	if err := checkShape(x.Target, b.t); err != nil {
		return st, err
	}
	p := x.prefix()
	var sum cluster.Sum
	for i := lo; i < hi; i++ {
		u := &x.Units[i]
		carried := sum
		sum = cluster.Sum{}
		if i == 0 && p != nil && hi >= p.End && b.c.Fresh() {
			b.c.FillProduct(p.Fill)
			b.c.RunSchedule(u.Sched)
			st.filled = true
			if len(p.Rest) == 0 {
				sum = cluster.Sum{Value: p.Fill.Sum(), Known: true}
			}
			i = p.End - 1
			continue
		}
		if u.Op == nil {
			if p != nil && i < p.End {
				b.c.RunSchedule(p.unitSched(i, u.Gates))
				continue
			}
			b.c.RunSchedule(u.Sched)
			continue
		}
		var next *recognize.Op
		if i+1 < hi {
			next = x.Units[i+1].Op
		}
		if next != nil && b.c.ApplyOpPair(u.Op, next) {
			st.composed++
			i++
			continue
		}
		var onePass bool
		if sum, onePass, err = b.c.ApplyOpSum(u.Op, next, carried); err != nil {
			return st, err
		}
		if onePass {
			st.carried++
		}
	}
	return st, nil
}

// Run dispatches the whole executable through RunUnits, reporting the
// communication the run paid.
func (b *clusterBackend) Run(x *Executable) (*Result, error) {
	before := b.c.Stats.Snapshot()
	elapsed := perfmodel.Clock()
	st, err := b.runUnits(x, 0, len(x.Units))
	if err != nil {
		return nil, err
	}
	res := x.result()
	res.Wall = elapsed()
	if res.Prefix != nil {
		res.Prefix.Filled = st.filled
	}
	res.ComposedPairs, res.CarriedSums = st.composed, st.carried
	after := b.c.Stats.Snapshot()
	res.Comm = Comm{
		Rounds:    after.Rounds - before.Rounds,
		Messages:  after.Messages - before.Messages,
		BytesSent: after.BytesSent - before.BytesSent,
		AllToAlls: after.AllToAlls - before.AllToAlls,
	}
	return res, nil
}
