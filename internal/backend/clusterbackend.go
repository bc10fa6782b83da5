package backend

import (
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/gates"
	"repro/internal/perfmodel"
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
// recognised ops lower through Cluster.ApplyOp, gate segments execute
// their precompiled communication schedules. A call that runs a product
// prefix's whole span [0, End) on a fresh register starts with the
// prefix's fill and runs the span's remainder; any other runs each spanned
// unit as its own lowering, the ops through ApplyOp.
func (b *clusterBackend) RunUnits(x *Executable, lo, hi int) error {
	_, err := b.runUnits(x, lo, hi)
	return err
}

// runUnits is RunUnits, reporting whether a product prefix filled.
func (b *clusterBackend) runUnits(x *Executable, lo, hi int) (filled bool, err error) {
	if b.closed.Load() {
		return false, ErrClosed
	}
	if err := checkShape(x.Target, b.t); err != nil {
		return false, err
	}
	p := x.prefix()
	for i := lo; i < hi; i++ {
		u := &x.Units[i]
		if i == 0 && p != nil && hi >= p.End && b.c.Fresh() {
			b.c.FillProduct(p.Fill)
			b.c.RunSchedule(u.Sched)
			filled = true
			i = p.End - 1
			continue
		}
		if u.Op != nil {
			if _, err := b.c.ApplyOp(u.Op); err != nil {
				return filled, err
			}
			continue
		}
		if p != nil && i < p.End {
			b.c.RunSchedule(p.unitSched(i, u.Gates))
			continue
		}
		b.c.RunSchedule(u.Sched)
	}
	return filled, nil
}

// Run dispatches the whole executable through RunUnits, reporting the
// communication the run paid.
func (b *clusterBackend) Run(x *Executable) (*Result, error) {
	before := b.c.Stats.Snapshot()
	elapsed := perfmodel.Clock()
	filled, err := b.runUnits(x, 0, len(x.Units))
	if err != nil {
		return nil, err
	}
	res := x.result()
	res.Wall = elapsed()
	if res.Prefix != nil {
		res.Prefix.Filled = filled
	}
	after := b.c.Stats.Snapshot()
	res.Comm = Comm{
		Rounds:    after.Rounds - before.Rounds,
		Messages:  after.Messages - before.Messages,
		BytesSent: after.BytesSent - before.BytesSent,
		AllToAlls: after.AllToAlls - before.AllToAlls,
	}
	return res, nil
}
