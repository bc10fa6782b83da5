package backend

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/gates"
	"repro/internal/rng"
	"repro/internal/statevec"
)

// local is the single-address-space backend family: one state vector,
// with the gate kernel chosen by the target kind (specialised, generic
// dense, or sparse matrix products).
type local struct {
	t      Target
	st     *statevec.State
	apply  func(gates.Gate)
	stats  Stats
	closed atomic.Bool
}

func newLocalBackend(t Target) (Backend, error) {
	st := statevec.New(t.NumQubits)
	if t.Workers > 0 {
		st.SetParallelism(t.Workers)
	}
	b := &local{t: t, st: st}
	switch t.Kind {
	case Fused:
		b.apply = st.ApplyGate
	case Generic:
		b.apply = st.ApplyGateGeneric
	case Sparse:
		b.apply = st.ApplyGateSparse
	default:
		return nil, fmt.Errorf("backend: %s is not a local kind", t.Kind)
	}
	return b, nil
}

func (b *local) NumQubits() uint            { return b.t.NumQubits }
func (b *local) Target() Target             { return b.t }
func (b *local) State() *statevec.State     { return b.st }
func (b *local) Stats() Stats               { return b.stats }
func (b *local) Probability(q uint) float64 { return b.st.Probability(q) }

// Close implements the Backend contract: idempotent, returns nil, and
// never fences in-flight Runs — the state vector is garbage-collected, so
// closing only marks the backend retired and rejects future Runs.
func (b *local) Close() error {
	b.closed.Store(true)
	return nil
}

func (b *local) ApplyGate(g gates.Gate) {
	b.stats.Gates++
	b.apply(g)
}

func (b *local) Measure(q uint, src *rng.Source) uint64 { return b.st.Measure(q, src) }
func (b *local) Sample(src *rng.Source) uint64          { return b.st.Sample(src) }
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

// RunUnits executes units [lo, hi) of the executable against the current
// state: recognised ops apply their statevec shortcut, gate segments run
// their fused plan (Fused kind) or replay gate by gate through the kind's
// kernel.
func (b *local) RunUnits(x *Executable, lo, hi int) error {
	if b.closed.Load() {
		return ErrClosed
	}
	if !sameShape(x.Target, b.t) {
		return fmt.Errorf("backend: executable compiled for %s/%d qubits, backend is %s/%d",
			x.Target.Kind, x.Target.NumQubits, b.t.Kind, b.t.NumQubits)
	}
	for i := lo; i < hi; i++ {
		u := &x.Units[i]
		if u.Op != nil {
			u.Op.Apply(b.st)
			b.stats.EmulatedOps++
			continue
		}
		b.stats.Gates += uint64(u.Hi - u.Lo)
		if u.Fused != nil {
			u.Fused.Apply(b.st, b.apply)
			continue
		}
		for _, g := range u.Gates {
			b.apply(g)
		}
	}
	return nil
}

// Run dispatches the whole executable through RunUnits.
func (b *local) Run(x *Executable) (*Result, error) {
	//lint:ignore detrng wall time is reported in Result, never fed into amplitudes
	start := time.Now()
	if err := b.RunUnits(x, 0, len(x.Units)); err != nil {
		return nil, err
	}
	res := x.result()
	//lint:ignore detrng wall time is reported in Result, never fed into amplitudes
	res.Wall = time.Since(start)
	return res, nil
}
