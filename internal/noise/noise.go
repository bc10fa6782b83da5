package noise

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/backend"
	"repro/internal/circuit"
	"repro/internal/gates"
	"repro/internal/rng"
)

// Options configure one trajectory batch over a compiled executable.
type Options struct {
	// Trajectories is the number of stochastic wavefunctions to evolve;
	// each yields one sampled measurement outcome.
	Trajectories int
	// Seed derives the whole batch: a master stream seeded here hands one
	// sub-seed to every trajectory up front, so trajectory t replays the
	// identical noise realisation no matter how many workers run the
	// batch or which worker it lands on.
	Seed uint64
	// Workers bounds the concurrent trajectory workers, each owning one
	// backend of the executable's target shape. 0 means 1 (serial).
	Workers int
}

// Result is one trajectory batch's outcome.
type Result struct {
	// Outcomes holds the sampled basis state of each trajectory, in
	// trajectory order (independent of worker scheduling).
	Outcomes []uint64
	// Jumps counts the non-identity Kraus branches sampled across the
	// batch — the error events the noise model injected.
	Jumps uint64
	// StruckUnits counts the units, across the batch, that a Pauli jump
	// fired inside and that were therefore replayed gate by gate instead
	// of run whole; ReplayedGates counts the gates of those units. Like
	// Jumps, both are functions of (Seed, plan, unit schedule) alone.
	StruckUnits   uint64
	ReplayedGates uint64
	// Points is the number of noise insertion points per trajectory
	// (zero for an ideal executable).
	Points int
	// Wall is the batch's wall time, reporting only.
	Wall time.Duration
}

// Counts folds the outcomes into a basis-state histogram.
func (r *Result) Counts() map[uint64]int {
	h := make(map[uint64]int)
	for _, o := range r.Outcomes {
		h[o]++
	}
	return h
}

// Run evolves opts.Trajectories stochastic wavefunctions of the compiled
// executable and samples one measurement outcome from each. All
// trajectories replay the same executable — compiled once, run many — so
// a served batch costs one compilation regardless of its size.
//
// Each trajectory resets a backend to |0…0> and walks the unit schedule.
// Per unit it first draws one uniform variate for every noise point the
// unit holds, in plan order; a Pauli point's branch is a function of its
// variate alone, so the draws say whether any point fires before the
// unit's last gate. If none does the unit runs whole — fused blocks,
// schedule and all — and its closing points strike after it; if one does
// the unit's gates are replayed one at a time with every point striking
// after its own gate. The one-draw-per-point contract is what makes the
// batch seed-deterministic: the draw sequence of trajectory t depends
// only on (Seed, t) and the noise plan, never on branch outcomes, unit
// boundaries, worker count or backend parallelism.
//
// Ideal executables (no noise plan) are legal: the batch degenerates to
// repeated runs sampled with per-trajectory seeds.
func Run(x *backend.Executable, opts Options) (*Result, error) {
	if x == nil {
		return nil, fmt.Errorf("noise: nil executable")
	}
	n := opts.Trajectories
	if n <= 0 {
		return nil, fmt.Errorf("noise: trajectory count %d must be positive", n)
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = 1
	}
	if workers > n {
		workers = n
	}

	// Sub-seeds come off one master stream before any worker starts, so
	// the (worker count → trajectory) assignment cannot leak into the
	// realisations.
	seeds := make([]uint64, n)
	master := rng.New(opts.Seed)
	for i := range seeds {
		seeds[i] = master.Uint64()
	}

	var pts []backend.NoisePoint
	if x.Noise != nil {
		pts = x.Noise.Points
	}
	widest := maxUnitPoints(x)

	res := &Result{Outcomes: make([]uint64, n), Points: len(pts)}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	//lint:ignore detrng wall time is reported in Result, never fed into amplitudes
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			b, err := backend.New(x.Target)
			if err != nil {
				fail(err)
				return
			}
			defer b.Close()
			wk := worker{b: b, x: x, pts: pts, u: make([]float64, widest)}
			// Striped assignment: worker w owns trajectories w, w+W, …
			// Workers write disjoint outcome slots, so no lock is held on
			// the hot path.
			for t := w; t < n; t += workers {
				if res.Outcomes[t], err = wk.trajectory(seeds[t]); err != nil {
					fail(err)
					return
				}
			}
			mu.Lock()
			res.Jumps += wk.jumps
			res.StruckUnits += wk.struck
			res.ReplayedGates += wk.replayed
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	//lint:ignore detrng wall time is reported in Result, never fed into amplitudes
	res.Wall = time.Since(start)
	return res, nil
}

// maxUnitPoints returns the largest number of plan points any one unit of
// x holds — the size of a worker's variate buffer.
func maxUnitPoints(x *backend.Executable) int {
	widest := 0
	for i := range x.Units {
		widest = max(widest, len(x.Noise.PointsIn(x.Units[i].Lo, x.Units[i].Hi)))
	}
	return widest
}

// worker is one trajectory worker: a backend of the executable's shape,
// the stream it reseeds for every trajectory, and the variates of the
// unit in hand. Everything is allocated when the batch starts; a
// trajectory allocates nothing.
type worker struct {
	b   backend.Backend
	x   *backend.Executable
	pts []backend.NoisePoint // the plan's points, nil for an ideal executable
	src rng.Source
	u   []float64 // one variate per point of the unit in hand, plan order

	jumps, struck, replayed uint64
}

// errStruckOp is what a trajectory returns when a point fires inside a
// recognised op: the op carries no gates to replay. Compile never emits
// such a unit and VerifyExecutable rejects it.
var errStruckOp = errors.New("noise: a noise point lies inside a recognised op (executable not verified)")

// trajectory evolves one stochastic wavefunction — reset, then per unit
// draw, run or replay, strike — and samples its outcome.
//
//qemu:hotpath
func (w *worker) trajectory(seed uint64) (uint64, error) {
	w.b.Reset()
	w.src.Seed(seed)
	rest := w.pts
	for i := range w.x.Units {
		unit := &w.x.Units[i]
		n := 0 // the unit's points: the plan is sorted by gate
		for n < len(rest) && rest[n].Gate < unit.Hi {
			n++
		}
		pts, u := rest[:n], w.u[:n]
		rest = rest[n:]

		// Draw first. A point before the unit's last gate that fires — or
		// a damping point there, which only a hand-built executable has
		// and whose branch needs the state at its own gate — sends the
		// unit to the replay path.
		struck := false
		for k := range pts {
			u[k] = w.src.Float64()
			if pts[k].Gate < unit.Hi-1 && (pts[k].Hard() || u[k] < pts[k].Ch.P) {
				struck = true
			}
		}

		if !struck {
			if err := w.b.RunUnits(w.x, i, i+1); err != nil {
				return 0, err
			}
			// The closing points, and interior ones that drew identity.
			for k := range pts {
				if applyChannel(w.b, pts[k], u[k]) {
					w.jumps++
				}
			}
			continue
		}
		if unit.Op != nil {
			return 0, errStruckOp
		}
		w.struck++
		w.replayed += uint64(len(unit.Gates))
		k := 0
		for j := range unit.Gates {
			w.b.ApplyGate(unit.Gates[j])
			for ; k < n && pts[k].Gate == unit.Lo+j; k++ {
				if applyChannel(w.b, pts[k], u[k]) {
					w.jumps++
				}
			}
		}
	}
	return w.b.Sample(&w.src), nil
}

// applyChannel applies the Kraus branch of pt's channel that the variate
// u selects, reporting whether a non-identity jump fired. Every point
// consumes exactly one variate whatever branch it takes — the draw-count
// invariance the batch's determinism contract rests on.
//
// Branch probabilities follow the standard Monte-Carlo wavefunction
// rules: state-independent for the unitary (Pauli) channels, and
// ‖K_jump·ψ‖² = γ·P(q=1) for the damping channels, whose no-jump branch
// applies the non-unitary K₀ = diag(1, √(1−γ)) and renormalises.
//
//qemu:hotpath
func applyChannel(b backend.Backend, pt backend.NoisePoint, u float64) bool {
	p := pt.Ch.P
	q := pt.Qubit
	switch pt.Ch.Kind {
	case circuit.FlipX:
		if u < p {
			b.ApplyGate(gates.X(q))
			return true
		}
	case circuit.FlipY:
		if u < p {
			b.ApplyGate(gates.Y(q))
			return true
		}
	case circuit.FlipZ:
		if u < p {
			b.ApplyGate(gates.Z(q))
			return true
		}
	case circuit.Depolarizing:
		switch {
		case u < p/3:
			b.ApplyGate(gates.X(q))
			return true
		case u < 2*p/3:
			b.ApplyGate(gates.Y(q))
			return true
		case u < p:
			b.ApplyGate(gates.Z(q))
			return true
		}
	case circuit.AmplitudeDamping:
		if u < p*b.Probability(q) {
			b.ApplyKraus(ampJump(p), q)
			return true
		}
		b.ApplyKraus(dampNoJump(p), q)
	case circuit.PhaseDamping:
		if u < p*b.Probability(q) {
			b.ApplyKraus(phaseJump(p), q)
			return true
		}
		b.ApplyKraus(dampNoJump(p), q)
	}
	return false
}

// dampNoJump is K₀ = diag(1, √(1−γ)), the shared no-jump operator of
// both damping channels.
func dampNoJump(gamma float64) gates.Matrix2 {
	return gates.Matrix2{1, 0, 0, complex(math.Sqrt(1-gamma), 0)}
}

// ampJump is the amplitude-damping jump K₁ = [[0, √γ], [0, 0]]: the
// qubit decays |1> → |0>.
func ampJump(gamma float64) gates.Matrix2 {
	return gates.Matrix2{0, complex(math.Sqrt(gamma), 0), 0, 0}
}

// phaseJump is the phase-damping jump K₁ = diag(0, √γ): the qubit's
// phase record leaks without a population change.
func phaseJump(gamma float64) gates.Matrix2 {
	return gates.Matrix2{0, 0, 0, complex(math.Sqrt(gamma), 0)}
}
