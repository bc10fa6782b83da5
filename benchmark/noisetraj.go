package main

import (
	"fmt"
	"math"
	"path/filepath"

	"repro/internal/backend"
	"repro/internal/gates"
	"repro/internal/noise"
	"repro/internal/noise/densref"
	"repro/internal/qasm"
	"repro/internal/recognize"
	"repro/internal/rng"
	"repro/internal/statevec"
)

// noise-traj: steady-state stochastic trajectories on one precompiled
// executable. The circuit is small (a 64 KiB state that lives in L1/L2)
// and every gate is its own unit followed by noise insertion points, so a
// trajectory is ~1300 tiny calls: per-call dispatch, Reset, ApplyKraus1
// and worker striping dominate — the same statevec/backend layers as
// gate-sweep, used the opposite way.

const (
	trajQubits      = 12
	trajQubitsSmoke = 8
	trajNoiseP      = 0.001
	// trajBatch trajectories make one timed operation (about 0.15 s at two
	// workers).
	trajBatch      = 200
	trajBatchSmoke = 16
	// densrefQubits and densrefTrajs size the statistical oracle: the
	// same generator at a width the density-matrix reference can afford.
	densrefQubits = 6
	densrefTrajs  = 4000
	// densrefNoiseP is raised so the noisy distribution differs visibly
	// from the ideal one and the check has something to see.
	densrefNoiseP = 0.01
	// densrefSigmas is the acceptance band per outcome. The driver makes
	// hundreds of runs; a 4-sigma band over 64 outcomes would reject one
	// run in 250 by chance alone, 5 sigma one in 27000.
	densrefSigmas = 5
)

type trajEnv struct {
	ctx   *runCtx
	n     uint
	batch int
	text  string
	x     *backend.Executable
	// outcomes[i] are the results of timed batch i (seed batchSeed(i)).
	outcomes [][]uint64
}

func (e *trajEnv) batchSeed(i int) uint64 { return e.ctx.Seed<<20 + uint64(i) }

func (e *trajEnv) target() backend.Target {
	return backend.Target{NumQubits: e.n, Kind: backend.Fused, FuseWidth: 4,
		Emulate: recognize.Off, Workers: e.ctx.Workers}
}

// compile is the set-up cycle: parse, compile, and one warm-up batch that
// touches every worker's state.
func (e *trajEnv) compile() error {
	c, err := qasm.ParseString(e.text)
	if err != nil {
		return err
	}
	if e.x, err = backend.Compile(c, e.target()); err != nil {
		return err
	}
	_, err = noise.Run(e.x, noise.Options{Trajectories: e.batch, Seed: e.batchSeed(0), Workers: e.ctx.Workers})
	return err
}

func runNoiseTraj(ctx *runCtx) (*outcome, error) {
	o := newOutcome("noise-traj")
	e := &trajEnv{ctx: ctx, n: trajQubits, batch: trajBatch}
	if ctx.Smoke {
		e.n, e.batch = trajQubitsSmoke, trajBatchSmoke
	}
	var genErr error
	generatorS := timed(func() {
		e.text, genErr = qasmText(genNoiseTraj(stream(ctx.Seed, "noise-traj"), e.n, trajNoiseP))
	})
	if genErr != nil {
		return nil, genErr
	}
	ref := newSweepReference(ctx.Workers)
	setupS, setupWall, err := setupCycles(ctx.setupRepeats(), ref, nil, e.compile)
	if err != nil {
		return nil, err
	}

	const minOps = 3 // the oracle replays the first, middle and last batch
	m := newMeter(ref)
	err = m.loop(ctx.passSeconds(), minOps, func(i int) error {
		res, err := noise.Run(e.x, noise.Options{Trajectories: e.batch, Seed: e.batchSeed(i), Workers: ctx.Workers})
		if err != nil {
			return err
		}
		e.outcomes = append(e.outcomes, res.Outcomes)
		return nil
	})
	if err != nil {
		return nil, err
	}
	m.endToEnd(o, m.Ops, 1)
	o.Attempted = len(m.Ops) * e.batch // failures are counted per trajectory
	o.Raw.set("traj_per_s", float64(o.Attempted)/m.wall.Seconds(), "1/s")
	o.Raw.set("batch_trajectories", float64(e.batch), "count")
	if err := finishEndToEnd(o, setupS, setupWall); err != nil {
		return nil, err
	}

	if ctx.Trace {
		if err := e.tracedPass(o, m, minOps); err != nil {
			return nil, err
		}
	}

	if ctx.CorruptSample {
		e.outcomes[0][0] ^= 1
	}
	oracleS := timed(func() { e.oracle(o) })
	o.harnessTimes(ctx.Trace, generatorS, oracleS)
	return o, nil
}

// oracle: the first, middle and last timed batches are replayed on one
// worker and must come out byte-identical (trajectory t depends on its
// seed alone, never on the worker it lands on); every batch has the right
// shape; and the same generator at six qubits matches the density-matrix
// reference's outcome distribution within densrefSigmas.
func (e *trajEnv) oracle(o *outcome) {
	limit := uint64(1) << e.n
	for i, got := range e.outcomes {
		bad := 0
		if len(got) != e.batch {
			bad = e.batch
		}
		for _, v := range got {
			if v >= limit {
				bad++
			}
		}
		o.fail(bad, "batch %d: %d outcomes outside the register", i, bad)
	}
	last := len(e.outcomes) - 1
	for _, i := range []int{0, last / 2, last} {
		res, err := noise.Run(e.x, noise.Options{Trajectories: e.batch, Seed: e.batchSeed(i), Workers: 1})
		if err != nil {
			o.fail(e.batch, "batch %d on one worker: %v", i, err)
			continue
		}
		bad := 0
		for t := range res.Outcomes {
			if t >= len(e.outcomes[i]) || res.Outcomes[t] != e.outcomes[i][t] {
				bad++
			}
		}
		o.fail(bad, "batch %d: %d trajectories differ between 1 and %d workers", i, bad, e.ctx.Workers)
	}
	if err := e.densrefCheck(); err != nil {
		o.fail(o.Attempted-o.Failed, "density-matrix reference: %v", err)
	}
}

// densrefCheck runs the workload's generator at densrefQubits through the
// same compile-and-trajectory path and compares the outcome histogram
// with the exact diagonal of the density matrix.
func (e *trajEnv) densrefCheck() error {
	qubits, trajs := uint(densrefQubits), densrefTrajs
	if e.ctx.Smoke {
		qubits, trajs = 4, trajs/8
	}
	c := genNoiseTraj(stream(e.ctx.Seed, "noise-traj-densref"), qubits, densrefNoiseP)
	text, err := qasmText(c)
	if err != nil {
		return err
	}
	parsed, err := qasm.ParseString(text)
	if err != nil {
		return err
	}
	want, err := densref.BasisProbabilities(parsed)
	if err != nil {
		return err
	}
	t := e.target()
	t.NumQubits = qubits
	x, err := backend.Compile(parsed, t)
	if err != nil {
		return err
	}
	res, err := noise.Run(x, noise.Options{Trajectories: trajs, Seed: e.ctx.Seed, Workers: e.ctx.Workers})
	if err != nil {
		return err
	}
	counts := res.Counts()
	for i, p := range want {
		freq := float64(counts[uint64(i)]) / float64(trajs)
		// The floor keeps a near-zero probability from demanding an
		// exactly empty bin.
		sigma := math.Sqrt(math.Max(p*(1-p), 1/float64(trajs)) / float64(trajs))
		if math.Abs(freq-p) > densrefSigmas*sigma {
			return fmt.Errorf("outcome %d: frequency %.4f, exact %.4f, more than %d sigma (%.4f) apart",
				i, freq, p, densrefSigmas, sigma)
		}
	}
	return nil
}

// tracedPass alternates batches at the run's worker count with batches on
// one worker, each under a span, and adds direct probes of the calls a
// trajectory is made of.
func (e *trajEnv) tracedPass(o *outcome, untraced *meter, minOps int) error {
	tr := newTracer()
	tm := newMeter(newSweepReference(e.ctx.Workers))
	var jumps, points float64
	err := tm.loop(e.ctx.passSeconds(), 2*minOps, func(i int) error {
		tr.nextOp()
		workers, name := e.ctx.Workers, "noise.run.wn"
		if i%2 == 1 {
			workers, name = 1, "noise.run.w1"
		}
		var res *noise.Result
		var err error
		tr.do(name, func() {
			res, err = noise.Run(e.x, noise.Options{Trajectories: e.batch, Seed: e.batchSeed(i), Workers: workers})
		})
		if err == nil {
			jumps += float64(res.Jumps)
			points = float64(res.Points)
		}
		return err
	})
	if err != nil {
		return err
	}
	agg := aggregate(tr.spans)
	batch := float64(e.batch)
	wn, w1 := median(agg["noise.run.wn"].Durs)/batch, median(agg["noise.run.w1"].Durs)/batch
	units := float64(len(e.x.Units))
	pl := o.PerLayer
	pl.set("noise.traj_us_wn", wn*1e6, "us")
	pl.set("noise.traj_us_w1", w1*1e6, "us")
	pl.set("noise.worker_scaling", w1/wn, "ratio")
	pl.set("noise.unit_dispatch_ns", w1*1e9/units, "ns")
	pl.set("noise.points_per_traj", points, "count")
	pl.set("noise.units_per_traj", units, "count")
	pl.set("noise.jumps_per_traj", jumps/(batch*float64(len(tm.Ops))), "count")
	pl.set("backend.units", units, "count")

	b, err := backend.New(e.x.Target)
	if err != nil {
		return err
	}
	defer b.Close()
	if _, err := b.Run(e.x); err != nil {
		return err
	}
	pl.set("backend.reset_us", probeMany(200, b.Reset)*1e6, "us")
	pl.set("backend.sample_us_per_shot", probeMany(200, func() { b.Sample(rng.New(1)) })*1e6, "us")
	kernelProbes(pl, "statevec.small", e.n, e.ctx.Workers, e.ctx.Seed, 200)
	st := statevec.NewRandom(e.n, rng.New(e.ctx.Seed))
	st.SetParallelism(e.ctx.Workers)
	amps := math.Pow(2, float64(e.n))
	// A damping-style Kraus operator: applying it shrinks the state, so
	// each call renormalises the way the runner does.
	k := gates.Matrix2{1, 0, 0, complex(math.Sqrt(1-trajNoiseP), 0)}
	pl.set("statevec.small.kraus1_ns_per_amp", probeMany(200, func() {
		st.RenormalizeMass(st.ApplyKraus1(k, e.n/2))
	})*1e9/amps, "ns/amp")
	pl.set("statevec.small.reset_ns_per_amp", probeMany(200, st.Reset)*1e9/amps, "ns/amp")

	// One traced batch is one span; nothing inside noise.Run is visible
	// from here, so the operation has no unattributed part by definition.
	pl.set("bench.unattributed_share", 0, "fraction")
	tracedRef := evens(tm.normalised(tm.Ops, 1)) // even calls ran at the run's worker count
	plain := median(untraced.normalised(untraced.Ops, 1))
	pl.set("bench.trace_overhead_share", (median(tracedRef)-plain)/plain, "fraction")
	return writeTrace(filepath.Join(e.ctx.OutDir, "trace-noise-traj.json"), "noise-traj", e.ctx.Seed, tr.spans)
}
