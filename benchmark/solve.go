package main

import (
	"fmt"
	"math"
	"path/filepath"
	"strings"

	"repro/internal/backend"
	"repro/internal/circuit"
	"repro/internal/cluster"
	"repro/internal/fft"
	"repro/internal/gates"
	"repro/internal/qasm"
	"repro/internal/qft"
	"repro/internal/recognize"
	"repro/internal/rng"
	"repro/internal/statevec"
)

// The three big-state workloads share one operation, the solve: qasm text
// to samples on an opened, warm backend — parse, Compile, Reset, Run,
// SampleMany. They differ in the circuit, the target and which layer
// probes the traced pass adds.

// solveShots is how many samples one solve draws.
const solveShots = 1024

// solveSpec describes one big-state workload.
type solveSpec struct {
	Name string
	// N and SmokeN are the register widths of a full and a smoke run.
	N, SmokeN uint
	Gen       func(src *rng.Source, n uint) *circuit.Circuit
	Target    func(n uint, workers int) backend.Target
	// Probes adds the workload's own layer probes to the traced pass.
	Probes func(e *solveEnv, pl metrics) error
}

// solveEnv is the state of one solve workload run.
type solveEnv struct {
	ctx    *runCtx
	spec   solveSpec
	n      uint
	text   string
	target backend.Target
	b      backend.Backend
	last   *backend.Executable // most recent compile
	// samples[i] are the draws of timed solve i, seed sampleSeed(i).
	samples [][]uint64
}

func (e *solveEnv) amps() float64 { return math.Pow(2, float64(e.n)) }

// sampleSeed is the sampling seed of timed solve i.
func (e *solveEnv) sampleSeed(i int) uint64 { return e.ctx.Seed<<20 + uint64(i) }

var gateSweepSpec = solveSpec{
	Name: "gate-sweep", N: 20, SmokeN: 12,
	Gen: func(src *rng.Source, n uint) *circuit.Circuit {
		return genGateSweep(stream(shapeSeed, "gate-sweep-shape"), src, n, 10)
	},
	Target: func(n uint, workers int) backend.Target {
		return backend.Target{NumQubits: n, Kind: backend.Fused, FuseWidth: 4,
			Emulate: recognize.Off, Workers: workers}
	},
	Probes: probeGateSweep,
}

var emulateMixSpec = solveSpec{
	Name: "emulate-mix", N: 20, SmokeN: 11,
	Gen: genEmulateMix,
	Target: func(n uint, workers int) backend.Target {
		return backend.Target{NumQubits: n, Auto: true, Workers: workers}
	},
	Probes: probeEmulateMix,
}

var clusterShardSpec = solveSpec{
	Name: "cluster-shard", N: 20, SmokeN: 10,
	Gen: func(src *rng.Source, n uint) *circuit.Circuit {
		return genClusterShard(stream(shapeSeed, "cluster-shard-shape"), src, n, 6)
	},
	Target: func(n uint, workers int) backend.Target {
		return backend.Target{NumQubits: n, Kind: backend.Cluster, Nodes: 4, FuseWidth: 4,
			Emulate: recognize.Auto, Workers: workers}
	},
	Probes: probeClusterShard,
}

func runGateSweep(ctx *runCtx) (*outcome, error)    { return runSolve(ctx, gateSweepSpec) }
func runEmulateMix(ctx *runCtx) (*outcome, error)   { return runSolve(ctx, emulateMixSpec) }
func runClusterShard(ctx *runCtx) (*outcome, error) { return runSolve(ctx, clusterShardSpec) }

// solve is the timed operation. tr is nil in the untraced pass. With
// perUnit set the run is issued unit by unit so each unit gets a span;
// otherwise Run executes the whole executable in one call.
func (e *solveEnv) solve(tr *tracer, perUnit bool, sampleSeed uint64) ([]uint64, error) {
	var (
		c       *circuit.Circuit
		x       *backend.Executable
		samples []uint64
		err     error
	)
	tr.do("qasm.parse", func() { c, err = qasm.ParseString(e.text) })
	if err != nil {
		return nil, err
	}
	tr.do("backend.compile", func() { x, err = backend.Compile(c, e.target) })
	if err != nil {
		return nil, err
	}
	e.last = x
	tr.do("backend.reset", func() { e.b.Reset() })
	if perUnit {
		tr.do("backend.run_units", func() {
			for i := range x.Units {
				tr.do(unitSpanName(&x.Units[i]), func() { err = e.b.RunUnits(x, i, i+1) })
				if err != nil {
					return
				}
			}
		})
	} else {
		tr.do("backend.run", func() { _, err = e.b.Run(x) })
	}
	if err != nil {
		return nil, err
	}
	tr.do("backend.sample", func() { samples = e.b.SampleMany(solveShots, rng.New(sampleSeed)) })
	return samples, nil
}

// unitSpanName classifies an executable unit: "backend.unit.op.<kind>"
// for a recognised shortcut, "backend.unit.gates" for a gate segment.
func unitSpanName(u *backend.Unit) string {
	if u.Op != nil {
		return "backend.unit.op." + u.Op.Kind()
	}
	return "backend.unit.gates"
}

// openCycle is one set-up cycle: parse and compile the circuit, open a
// backend of the compiled shape, pay the first-touch first run and one
// sample draw.
func (e *solveEnv) openCycle(tr *tracer) error {
	c, err := qasm.ParseString(e.text)
	if err != nil {
		return err
	}
	x, err := backend.Compile(c, e.target)
	if err != nil {
		return err
	}
	// An auto target resolves at compile time; the backend is opened
	// with the resolved shape, the way serve opens its sessions.
	tr.do("backend.open", func() { e.b, err = backend.New(x.Target) })
	if err != nil {
		return err
	}
	tr.do("backend.first_run", func() { _, err = e.b.Run(x) })
	if err != nil {
		return err
	}
	e.b.SampleMany(solveShots, rng.New(e.sampleSeed(0)))
	e.last = x
	return nil
}

func runSolve(ctx *runCtx, spec solveSpec) (*outcome, error) {
	o := newOutcome(spec.Name)
	e := &solveEnv{ctx: ctx, spec: spec, n: spec.N}
	if ctx.Smoke {
		e.n = spec.SmokeN
	}
	e.target = spec.Target(e.n, ctx.Workers)

	var genErr error
	generatorS := timed(func() {
		e.text, genErr = qasmText(spec.Gen(stream(ctx.Seed, spec.Name), e.n))
	})
	if genErr != nil {
		return nil, genErr
	}

	var setupTr *tracer
	if ctx.Trace {
		setupTr = newTracer()
	}
	ref := newSweepReference(ctx.Workers)
	setupS, setupWall, err := setupCycles(ctx.setupRepeats(), ref, func() { e.b.Close(); e.b = nil },
		func() error { return e.openCycle(setupTr) })
	if err != nil {
		return nil, err
	}
	defer e.b.Close()
	if e.last.Selection != nil {
		o.Labels["chosen_target"] = backend.DescribeTarget(e.last.Target)
	}

	// Untraced pass: the end-to-end numbers. A traced run splits its time
	// between this and the traced pass.
	const minOps = 2
	m := newMeter(ref)
	err = m.loop(ctx.passSeconds(), minOps, func(i int) error {
		s, err := e.solve(nil, false, e.sampleSeed(i))
		e.samples = append(e.samples, s)
		return err
	})
	if err != nil {
		return nil, err
	}
	m.endToEnd(o, m.Ops, 1)
	o.Raw.set("solve_s_p50", median(m.Ops), "s")
	if err := finishEndToEnd(o, setupS, setupWall); err != nil {
		return nil, err
	}

	if ctx.Trace {
		if err := e.tracedPass(o, m, setupTr, minOps); err != nil {
			return nil, err
		}
	}

	if ctx.CorruptSample {
		e.samples[0][0] ^= 1
	}
	oracleS := timed(func() { e.oracle(o) })
	o.harnessTimes(ctx.Trace, generatorS, oracleS)
	return o, nil
}

// sampleEps is the running-mass slack of the sample check against the
// program's own final state: summation order is the only difference.
const sampleEps = 1e-12

// oracle checks the program's answers against openReference: the final
// state must agree to 1e-9 and be normalised, and every timed solve's
// samples must be, draw for draw under the same seed, what the sampling
// contract yields over that state.
func (e *solveEnv) oracle(o *outcome) {
	c, err := qasm.ParseString(e.text)
	if err != nil {
		o.fail(o.Attempted, "oracle parse: %v", err)
		return
	}
	ref, err := openReference(c, e.ctx.Workers)
	if err != nil {
		o.fail(o.Attempted, "oracle run: %v", err)
		return
	}
	defer ref.Close()
	got := e.b.State()
	if d := got.MaxDiff(ref.State()); d > 1e-9 {
		o.fail(o.Attempted, "final state differs from the gate-by-gate reference by %.3g", d)
		return
	}
	if d := math.Abs(got.Norm() - 1); d > 1e-9 {
		o.fail(o.Attempted, "final state norm off by %.3g", d)
		return
	}
	// Every solve ends in the state just checked, so its draws must be
	// the ones the sampling contract yields over that state.
	table := newCDFTable(got)
	bad := 0
	for i, s := range e.samples {
		if !table.matches(s, rng.New(e.sampleSeed(i)), sampleEps) {
			bad++
		}
	}
	o.fail(bad, "%d solves drew samples the sampling contract does not yield over the final state", bad)
}

// tracedPass repeats the workload with spans around every layer call,
// alternating whole-Run solves with unit-by-unit solves, derives the
// per-layer metrics from the spans, runs the workload's own layer probes
// and writes the trace file.
func (e *solveEnv) tracedPass(o *outcome, untraced *meter, setupTr *tracer, minOps int) error {
	tr := newTracer()
	tm := newMeter(newSweepReference(e.ctx.Workers))
	err := tm.loop(e.ctx.passSeconds(), 2*minOps, func(i int) error {
		tr.nextOp()
		var err error
		tr.do("solve", func() { _, err = e.solve(tr, i%2 == 1, e.sampleSeed(0)) })
		return err
	})
	if err != nil {
		return err
	}
	// Even calls ran the executable whole, odd calls unit by unit.
	wholeRef := evens(tm.normalised(tm.Ops, 1))
	unitRuns := float64(len(tm.Ops) / 2)
	agg := aggregate(tr.spans)
	setupAgg := aggregate(setupTr.spans)
	pl := o.PerLayer
	x := e.last

	parse := agg["qasm.parse"]
	pl.set("qasm.parse_us", median(parse.Durs)*1e6, "us")
	pl.set("qasm.parse_mb_per_s", float64(len(e.text))/1e6/median(parse.Durs), "MB/s")
	compileName := "backend.compile_explicit_ms"
	if e.target.Auto {
		compileName = "backend.compile_ms"
	}
	pl.set(compileName, median(agg["backend.compile"].Durs)*1e3, "ms")
	pl.set("backend.open_ms", median(setupAgg["backend.open"].Durs)*1e3, "ms")
	pl.set("backend.first_run_s", setupAgg["backend.first_run"].Durs[0], "s")
	pl.set("backend.reset_us", median(agg["backend.reset"].Durs)*1e6, "us")
	pl.set("backend.sample_us_per_shot", median(agg["backend.sample"].Durs)*1e6/solveShots, "us")

	runS := median(agg["backend.run"].Durs)
	pl.set("backend.run_s", runS, "s")
	var opS, gateS float64
	perKind := map[string][]float64{}
	for name, a := range agg {
		if kind, isOp := strings.CutPrefix(name, "backend.unit.op."); isOp {
			opS += a.Total
			perKind[kind] = a.Durs
		} else if name == "backend.unit.gates" {
			gateS += a.Total
		}
	}
	pl.set("backend.unit_s.op", opS/unitRuns, "s")
	pl.set("backend.unit_s.gates", gateS/unitRuns, "s")
	pl.set("backend.dispatch_gap_share", (runS-(opS+gateS)/unitRuns)/runS, "fraction")
	pl.set("backend.units", float64(len(x.Units)), "count")
	pl.set("backend.emulated_gate_share", float64(x.EmulatedGates)/float64(x.NumGates), "fraction")
	for kind, metricName := range map[string]string{
		"qft": "recognize.qft_ns_per_amp", "add": "recognize.perm_ns_per_amp",
		"diagonal": "recognize.diag_ns_per_amp", "reflect": "recognize.reflect_ns_per_amp",
	} {
		if durs := perKind[kind]; len(durs) > 0 {
			pl.set(metricName, median(durs)*1e9/e.amps(), "ns/amp")
		}
	}

	// Stage spans must add up to the operation: what the solve span does
	// not cover with children is unattributed.
	solve := agg["solve"]
	pl.set("bench.unattributed_share", solve.Self/solve.Total, "fraction")
	plain := median(untraced.normalised(untraced.Ops, 1))
	pl.set("bench.trace_overhead_share", (median(wholeRef)-plain)/plain, "fraction")

	if err := e.spec.Probes(e, pl); err != nil {
		return err
	}
	setupTr.merge(tr) // one file: the set-up cycles' spans, then the solves'
	return writeTrace(filepath.Join(e.ctx.OutDir, "trace-"+e.spec.Name+".json"), e.spec.Name, e.ctx.Seed, setupTr.spans)
}

// probeReps is how often a direct kernel probe repeats; its median is
// reported.
const probeReps = 5

// probe times f probeReps times (after one untimed warm-up call) and
// returns the median in seconds.
func probe(f func()) float64 {
	f()
	var ds []float64
	for i := 0; i < probeReps; i++ {
		ds = append(ds, timed(f))
	}
	return median(ds)
}

// probeMany times reps back-to-back calls of a sub-microsecond-to-
// microsecond function as one interval, probeReps times, and returns the
// median time per call in seconds.
func probeMany(reps int, f func()) float64 {
	return probe(func() {
		for i := 0; i < reps; i++ {
			f()
		}
	}) / float64(reps)
}

// kernelProbes times the statevec kernels directly on a random n-qubit
// state and reports ns per amplitude under prefix ("statevec.big" or
// "statevec.small"). reps calls are timed as one interval, so kernels on
// a small state are not measured at the clock's resolution.
func kernelProbes(pl metrics, prefix string, n uint, workers int, seed uint64, reps int) {
	st := statevec.NewRandom(n, rng.New(seed))
	st.SetParallelism(workers)
	src := rng.New(seed + 1)
	amps := math.Pow(2, float64(n))
	const k = 4
	qs := []uint{1, n / 3, 2 * n / 3, n - 1} // ascending, spread over the register
	m := make([]complex128, 1<<(2*k))
	d := make([]complex128, 1<<k)
	for i := range d {
		m[i<<k|i] = complex(math.Cos(float64(i)), math.Sin(float64(i)))
		d[i] = m[i<<k|i]
	}
	mask := uint64(1)<<n - 1
	set := func(name string, f func()) {
		pl.set(prefix+"."+name, probeMany(reps, f)*1e9/amps, "ns/amp")
	}
	set("h_low_ns_per_amp", func() { st.ApplyHadamard(0) })
	set("h_high_ns_per_amp", func() { st.ApplyHadamard(n - 1) })
	set("matrix4_ns_per_amp", func() { st.ApplyMatrixN(m, qs) })
	set("diag4_ns_per_amp", func() { st.ApplyDiagN(d, qs) })
	set("cx_ns_per_amp", func() { st.ApplyControlledX(n-1, []uint{0}) })
	set("perm_ns_per_amp", func() { st.ApplyPermutation(func(i uint64) uint64 { return (i + 1) & mask }) })
	set("cdf_ns_per_amp", func() { st.SampleMany(solveShots, src) })
}

// triadGBps is the benchmark's own STREAM-style triad a[i] = b[i] + s*c[i]
// over three float64 arrays of bytesPerArray each, split across workers;
// it returns the sustained rate counting 24 bytes moved per element.
func triadGBps(bytesPerArray, workers int) float64 {
	n := bytesPerArray / 8
	a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range b {
		b[i], c[i] = 1, 2
	}
	per := n / workers
	secs := probe(func() {
		done := make(chan struct{}, workers)
		for w := 0; w < workers; w++ {
			go func(lo, hi int) {
				for i := lo; i < hi; i++ {
					a[i] = b[i] + 3*c[i]
				}
				done <- struct{}{}
			}(w*per, (w+1)*per)
		}
		for w := 0; w < workers; w++ {
			<-done
		}
	})
	return 24 * float64(per*workers) / secs / 1e9
}

// triadArrayBytes sizes the triad arrays: 64 MiB each, 16x the two cores'
// L2 on the build box. The host-shared L3 (260 MiB) cannot be exceeded
// fourfold inside the time cap, so the rate is an L3-or-better figure and
// bytes are computed, not counted.
const triadArrayBytes = 64 << 20

func probeGateSweep(e *solveEnv, pl metrics) error {
	var blocks, dense, gatesN int
	for i := range e.last.Units {
		if p := e.last.Units[i].Fused; p != nil {
			st := p.Stats()
			blocks += st.Blocks
			dense += st.Dense
			gatesN += st.Gates
		}
	}
	pl.set("fuse.blocks_per_gate", float64(blocks)/float64(gatesN), "ratio")
	pl.set("fuse.dense_share", float64(dense)/float64(blocks), "fraction")

	kernelProbes(pl, "statevec.big", e.n, e.ctx.Workers, e.ctx.Seed, 1)
	arrayBytes := triadArrayBytes
	if e.ctx.Smoke {
		arrayBytes = 1 << 20
	}
	triad := triadGBps(arrayBytes, e.ctx.Workers)
	// One dense sweep reads and writes every amplitude once: 32 bytes
	// per amplitude, computed.
	matrix4 := 32 / pl["statevec.big.matrix4_ns_per_amp"].Value
	pl.set("statevec.triad_gbps", triad, "GB/s")
	pl.set("statevec.big.matrix4_gbps", matrix4, "GB/s")
	pl.set("statevec.big.bw_share", matrix4/triad, "fraction")
	return nil
}

func probeEmulateMix(e *solveEnv, pl metrics) error {
	size := uint64(1) << e.n
	var plan *fft.Plan
	var err error
	pl.set("fft.plan_ms", timed(func() { plan, err = fft.NewPlan(size) })*1e3, "ms")
	if err != nil {
		return err
	}
	data := make([]complex128, size)
	data[1] = 1
	pl.set("fft.forward_ns_per_amp", probe(func() { plan.Forward(data) })*1e9/e.amps(), "ns/amp")

	// The selector's predicted cost beside what the run measured.
	if sel := e.last.Selection; sel != nil {
		run := pl["backend.run_s"].Value
		pl.set("perfmodel.predict_err_share", math.Abs(sel.Cost-run)/run, "fraction")
	}
	return nil
}

func probeClusterShard(e *solveEnv, pl metrics) error {
	e.b.Reset()
	res, err := e.b.Run(e.last)
	if err != nil {
		return err
	}
	pl.set("cluster.rounds", float64(res.Comm.Rounds), "count")
	pl.set("cluster.bytes_sent", float64(res.Comm.BytesSent), "B")
	pl.set("cluster.alltoalls", float64(res.Comm.AllToAlls), "count")
	pl.set("cluster.planned_remaps", float64(res.PlannedRemaps), "count")

	t := e.last.Target
	var gateUnit *backend.Unit // the longest scheduled gate segment
	for i := range e.last.Units {
		u := &e.last.Units[i]
		if u.Sched != nil && (gateUnit == nil || len(u.Gates) > len(gateUnit.Gates)) {
			gateUnit = u
		}
	}
	if gateUnit == nil {
		return fmt.Errorf("cluster-shard: executable has no scheduled gate unit")
	}
	pl.set("cluster.schedule_ms", probe(func() {
		_, err = cluster.BuildSchedule(gateUnit.Fused, t.NumQubits, t.LocalQubits(), true)
	})*1e3, "ms")
	if err != nil {
		return err
	}
	c, err := cluster.New(t.NumQubits, t.Nodes)
	if err != nil {
		return err
	}
	c.SetNodeParallelism(e.ctx.Workers)
	amps := e.amps()
	h := gates.H(t.NumQubits - 1) // a node-selecting qubit: pairwise shard exchange
	pl.set("cluster.exchange_ns_per_amp", probe(func() { c.ApplyGate(h) })*1e9/amps, "ns/amp")
	// A no-swap QFT leaves its bit reversal in the placement instead of
	// moving amplitudes; Canonicalize then pays the remap back to the
	// identity layout.
	noswap := recognize.Analyze(qft.CircuitNoSwap(t.NumQubits), recognize.DefaultOptions(recognize.Annotated)).Ops()
	if len(noswap) != 1 {
		return fmt.Errorf("cluster-shard: no-swap QFT was not recognised")
	}
	var canon []float64
	for i := 0; i < probeReps; i++ {
		if _, err := c.ApplyOp(noswap[0]); err != nil {
			return err
		}
		canon = append(canon, timed(c.Canonicalize))
	}
	pl.set("cluster.canonicalize_ns_per_amp", median(canon)*1e9/amps, "ns/amp")
	pl.set("cluster.emulate_qft_s", probe(func() { err = c.EmulateQFT() }), "s")
	if err != nil {
		return err
	}
	pl.set("cluster.gather_ms", probe(func() { c.Gather() })*1e3, "ms")
	return nil
}
