package noise

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/backend"
	"repro/internal/circuit"
	"repro/internal/gates"
	"repro/internal/par"
	"repro/internal/perfmodel"
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
	// Workers bounds the concurrent trajectory workers, each owning
	// StatesPerWorker backends of the executable's target shape. 0 means 1
	// (serial). The target's kernel workers are split between them: each
	// backend gets max(1, K/Workers), K being Target.Workers (GOMAXPROCS
	// when 0), so W trajectory workers do not each fan out K ways.
	Workers int
}

// StatesPerWorker is the number of register states a trajectory worker
// holds while its batch runs: the trajectory's own and the cursor's, the
// noise-free prefix the worker's trajectories fork from. A caller
// accounting a batch's memory reserves Workers × StatesPerWorker states.
const StatesPerWorker = 2

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
	// SharedUnits counts the units, across the batch, that trajectories
	// took from their worker's noise-free cursor instead of running: a
	// trajectory whose first noise event falls in unit k shares units
	// [0, k), one with no noise event shares every unit. Also a function of
	// (Seed, plan, unit schedule) alone.
	SharedUnits uint64
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
// A trajectory walks the unit schedule from |0…0>. Per unit it first
// draws one uniform variate for every noise point the unit holds, in plan
// order; a Pauli point's branch is a function of its variate alone, so
// the draws say whether any point fires before the unit's last gate. If
// none does the unit runs whole — fused blocks, schedule and all — and
// its closing points strike after it; if one does the unit's gates are
// replayed one at a time with every point striking after its own gate.
// The one-draw-per-point contract is what makes the batch
// seed-deterministic: the draw sequence of trajectory t depends only on
// (Seed, t) and the noise plan, never on branch outcomes, unit
// boundaries, worker count or backend parallelism.
//
// Trajectories share their noise-free prefix. Until its first noise
// event a trajectory is the ideal circuit, so each worker first draws,
// for every trajectory it owns, the variates up to its divergence unit k:
// the first unit that holds a hard (damping) point or a point whose
// variate fires, len(Units) if none does. It then runs its trajectories
// in increasing k, advancing a cursor — a second backend of the same
// shape — through the ideal units only as far as the next k. A
// trajectory copies the cursor's state (backend.CopyState), rewinds its
// stream to unit k's first draw and runs units k… as above; k = 0 is a
// Reset and every unit, and k = len(Units) samples the cursor itself.
// This is exact, not an approximation: the cursor runs the same units
// through the same kernels on the same target, so its state at unit k is
// bit for bit the one the trajectory would have computed, and every
// variate is still drawn once, in plan order, before Sample — outcomes,
// Jumps, StruckUnits and ReplayedGates are those of running every
// trajectory from |0…0>. Result.SharedUnits counts the units taken from
// the cursor.
//
// Ideal executables (no noise plan) are legal: the batch degenerates to
// one run per worker, sampled with per-trajectory seeds.
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
	off, widest := unitOffsets(x.Units, pts)
	// Split the target's kernel workers between the trajectory workers.
	target := x.Target
	kernels := target.Workers
	if kernels <= 0 {
		kernels = runtime.GOMAXPROCS(0)
	}
	target.Workers = max(1, kernels/workers)

	res := &Result{Outcomes: make([]uint64, n), Points: len(pts)}
	var mu sync.Mutex
	errs := make([]error, workers)
	elapsed := perfmodel.Clock()
	par.For(workers, func(w int) {
		// Striped assignment: worker w owns trajectories w, w+W, …
		// Workers write disjoint outcome slots, so no lock is held on the
		// hot path.
		wk, err := newWorker(x, target, pts, off, widest, (n-w+workers-1)/workers)
		if err != nil {
			errs[w] = err
			return
		}
		defer wk.close()
		for i := range wk.forks {
			t := w + i*workers
			wk.forks[i] = wk.diverge(t, seeds[t])
		}
		if errs[w] = wk.run(res.Outcomes); errs[w] != nil {
			return
		}
		mu.Lock()
		res.Jumps += wk.jumps
		res.StruckUnits += wk.struck
		res.ReplayedGates += wk.replayed
		res.SharedUnits += wk.shared
		mu.Unlock()
	})
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	res.Wall = elapsed()
	return res, nil
}

// unitOffsets returns off, where pts[off[i]:off[i+1]] are the plan points
// of unit i (the plan is sorted by gate, the units tile the gates), and the
// largest number of points any one unit holds — the size of a worker's
// variate buffer.
func unitOffsets(units []backend.Unit, pts []backend.NoisePoint) (off []int, widest int) {
	off = make([]int, len(units)+1)
	p := 0
	for i := range units {
		for p < len(pts) && pts[p].Gate < units[i].Hi {
			p++
		}
		off[i+1] = p
		widest = max(widest, off[i+1]-off[i])
	}
	return off, widest
}

// worker is one trajectory worker: a backend for the trajectory in hand,
// the cursor its trajectories fork from, the stream of the trajectory in
// hand and the variates of its unit, and one fork per trajectory it owns.
// Everything is allocated when the batch starts; a trajectory allocates
// nothing.
type worker struct {
	b      backend.Backend
	cursor backend.Backend // the ideal circuit's state, advanced by run
	x      *backend.Executable
	pts    []backend.NoisePoint // the plan's points, nil for an ideal executable
	off    []int                // pts[off[i]:off[i+1]] are unit i's points
	src    rng.Source
	u      []float64 // one variate per point of the unit in hand, plan order
	forks  []fork

	jumps, struck, replayed, shared uint64
}

// fork is where one trajectory leaves the noise-free prefix.
type fork struct {
	t   int        // the trajectory
	k   int        // its divergence unit: units [0, k) are the ideal circuit's
	src rng.Source // its stream, positioned at unit k's first draw
}

func newWorker(x *backend.Executable, t backend.Target, pts []backend.NoisePoint, off []int, widest, trajectories int) (*worker, error) {
	b, err := backend.New(t)
	if err != nil {
		return nil, err
	}
	cursor, err := backend.New(t)
	if err != nil {
		b.Close()
		return nil, err
	}
	return &worker{b: b, cursor: cursor, x: x, pts: pts, off: off,
		u: make([]float64, widest), forks: make([]fork, trajectories)}, nil
}

func (w *worker) close() {
	w.b.Close()
	w.cursor.Close()
}

// errStruckOp is what a trajectory returns when a point fires inside a
// recognised op: the op carries no gates to replay. Compile never emits
// such a unit and VerifyExecutable rejects it.
var errStruckOp = errors.New("noise: a noise point lies inside a recognised op (executable not verified)")

// diverge seeds trajectory t's stream and draws its variates in plan order
// up to its divergence unit: the first unit that holds a hard point — whose
// no-jump branch still moves the state — or a point whose variate fires.
// The draws stop there; the returned fork holds the stream rewound to that
// unit's first draw, or past the last point when nothing fires.
//
//qemu:hotpath
func (w *worker) diverge(t int, seed uint64) fork {
	f := fork{t: t, k: len(w.x.Units)}
	f.src.Seed(seed)
	for i := range w.x.Units {
		at := f.src
		for _, pt := range w.pts[w.off[i]:w.off[i+1]] {
			if pt.Hard() || f.src.Float64() < pt.Ch.P {
				f.k, f.src = i, at
				return f
			}
		}
	}
	return f
}

// run evolves the worker's trajectories in increasing divergence unit,
// advancing the cursor through the ideal units as far as each one's, and
// writes each outcome to its trajectory's slot of out.
//
//qemu:hotpath
func (w *worker) run(out []uint64) error {
	slices.SortStableFunc(w.forks, func(a, b fork) int { return a.k - b.k })
	at := 0
	for i := range w.forks {
		f := &w.forks[i]
		if f.k > at {
			if err := w.cursor.RunUnits(w.x, at, f.k); err != nil {
				return err
			}
			at = f.k
		}
		w.src = f.src
		w.shared += uint64(f.k)
		if f.k == len(w.x.Units) {
			out[f.t] = w.cursor.Sample(&w.src)
			continue
		}
		if f.k == 0 {
			w.b.Reset()
		} else if err := backend.CopyState(w.b, w.cursor); err != nil {
			return err
		}
		var err error
		if out[f.t], err = w.trajectory(f.k); err != nil {
			return err
		}
	}
	return nil
}

// trajectory evolves the trajectory in hand from unit from on — per unit
// draw, run or replay, strike — and samples its outcome. The backend holds
// the state after units [0, from) and the stream is at that unit's first
// draw.
//
//qemu:hotpath
func (w *worker) trajectory(from int) (uint64, error) {
	for i := from; i < len(w.x.Units); i++ {
		unit := &w.x.Units[i]
		pts := w.pts[w.off[i]:w.off[i+1]]
		n := len(pts)
		u := w.u[:n]

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
