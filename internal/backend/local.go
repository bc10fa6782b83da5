package backend

import (
	"fmt"
	"sync/atomic"

	"repro/internal/gates"
	"repro/internal/perfmodel"
	"repro/internal/rng"
	"repro/internal/statevec"
)

// local is the Generic reference: one state vector, every gate replayed
// through the dense 2x2 kernel. It is what the engines are measured
// against, not an engine the system serves, so it shares no dispatch with
// the cluster.
type local struct {
	t      Target
	st     *statevec.State
	closed atomic.Bool
}

func newLocalBackend(t Target) *local {
	st := statevec.New(t.NumQubits)
	if t.Workers > 0 {
		st.SetParallelism(t.Workers)
	}
	return &local{t: t, st: st}
}

func (b *local) Target() Target             { return b.t }
func (b *local) State() *statevec.State     { return b.st }
func (b *local) Probability(q uint) float64 { return b.st.Probability(q) }
func (b *local) ApplyGate(g gates.Gate)     { b.st.ApplyGateGeneric(g) }

// Close implements the Backend contract: idempotent, returns nil, and
// never fences in-flight Runs — the state vector is garbage-collected, so
// closing only marks the backend retired and rejects future Runs.
func (b *local) Close() error {
	b.closed.Store(true)
	return nil
}

func (b *local) Sample(src *rng.Source) uint64 { return b.st.Sample(src) }
func (b *local) SampleMany(k int, src *rng.Source) []uint64 {
	return b.st.SampleMany(k, src)
}

// Reset returns the register to |0...0>, reusing the state allocation.
func (b *local) Reset() { b.st.Reset() }

// ApplyKraus applies the 2x2 Kraus operator to qubit q, renormalises and
// returns the pre-normalisation branch mass.
func (b *local) ApplyKraus(m gates.Matrix2, q uint) float64 {
	mass := b.st.ApplyKraus1(m, q)
	b.st.RenormalizeMass(mass)
	return mass
}

// RunUnits replays the gates of units [lo, hi) one at a time against the
// current state. A Generic executable holds no recognised ops; one that
// does (a hand-built or unverified artifact) is refused.
func (b *local) RunUnits(x *Executable, lo, hi int) error {
	if b.closed.Load() {
		return ErrClosed
	}
	if err := checkShape(x.Target, b.t); err != nil {
		return err
	}
	for i := lo; i < hi; i++ {
		if x.Units[i].Op != nil {
			return fmt.Errorf("backend: unit %d is a recognised op; the %s reference runs gates only", i, b.t.Kind)
		}
		for _, g := range x.Units[i].Gates {
			b.st.ApplyGateGeneric(g)
		}
	}
	return nil
}

// Run dispatches the whole executable through RunUnits.
func (b *local) Run(x *Executable) (*Result, error) {
	elapsed := perfmodel.Clock()
	if err := b.RunUnits(x, 0, len(x.Units)); err != nil {
		return nil, err
	}
	res := x.result()
	res.Wall = elapsed()
	return res, nil
}
