package main

import (
	"bytes"
	"fmt"
	"math"
	"path/filepath"
	"strings"

	"repro/internal/backend"
	"repro/internal/circuit"
	"repro/internal/fuse"
	"repro/internal/perfmodel"
	"repro/internal/qasm"
	"repro/internal/recognize"
)

// compile-cold: the operation is qasm text to verified artifact — parse,
// Compile for the auto target (the qemu-serve default), Encode, Decode,
// VerifyExecutable — over a corpus of small circuits, so parsing,
// recognition (with its brute-force check on <= 8-qubit regions), fusion
// planning at four widths, profile/select and the codec do all the work
// and no state is larger than 256 KiB.

const (
	corpusCount      = 48
	corpusCountSmoke = 6
)

var (
	corpusSizes      = []uint{6, 8, 10, 12, 14}
	corpusSizesSmoke = []uint{6, 8, 10}
)

type compileEnv struct {
	ctx    *runCtx
	corpus []namedCircuit
	seen   []compiled // per corpus circuit, what the timed loop compiled
}

// compiled is what the oracle keeps of one corpus circuit's compiles.
type compiled struct {
	exec     *backend.Executable // the first executable
	artifact []byte              // its encoding
	count    int                 // compiles made
	mismatch int                 // compiles whose bytes differed from artifact
}

func (e *compileEnv) target(n uint) backend.Target {
	return backend.Target{NumQubits: n, Auto: true, Workers: e.ctx.Workers}
}

// compileOp is the timed operation on one circuit text.
func (e *compileEnv) compileOp(tr *tracer, text string) (*backend.Executable, []byte, error) {
	var (
		c    *circuit.Circuit
		x, y *backend.Executable
		art  []byte
		err  error
	)
	tr.do("qasm.parse", func() { c, err = qasm.ParseString(text) })
	if err != nil {
		return nil, nil, err
	}
	tr.do("backend.compile", func() { x, err = backend.Compile(c, e.target(c.NumQubits)) })
	if err != nil {
		return nil, nil, err
	}
	tr.do("backend.encode", func() { art, err = x.Encode() })
	if err != nil {
		return nil, nil, err
	}
	tr.do("backend.decode_verify", func() {
		if y, err = backend.Decode(art); err == nil {
			err = backend.VerifyExecutable(y)
		}
	})
	return x, art, err
}

// record files one compile of corpus[j] for the oracle.
func (e *compileEnv) record(j int, x *backend.Executable, art []byte) {
	c := &e.seen[j]
	c.count++
	if c.artifact == nil {
		c.artifact, c.exec = art, x
	} else if !bytes.Equal(art, c.artifact) {
		c.mismatch++
	}
}

func runCompileCold(ctx *runCtx) (*outcome, error) {
	o := newOutcome("compile-cold")
	e := &compileEnv{ctx: ctx}
	count, sizes := corpusCount, corpusSizes
	if ctx.Smoke {
		count, sizes = corpusCountSmoke, corpusSizesSmoke
	}
	var genErr error
	generatorS := timed(func() {
		e.corpus, genErr = genCompileCorpus(stream(ctx.Seed, "compile-cold"), count, sizes)
	})
	if genErr != nil {
		return nil, genErr
	}
	e.seen = make([]compiled, count)

	// Set-up: one compile per register width warms the lazily built
	// tables (FFT plans, kernel scratch) the passes share.
	ref := newSweepReference(1)
	setupS, setupWall, err := setupCycles(ctx.setupRepeats(), ref, nil, func() error {
		for j := range sizes {
			if _, _, err := e.compileOp(nil, e.corpus[j].Text); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	m := newMeter(ref)
	m.Stride = count
	err = m.loop(ctx.passSeconds(), count, func(i int) error {
		j := i % count
		x, art, err := e.compileOp(nil, e.corpus[j].Text)
		if err != nil {
			return fmt.Errorf("%s: %w", e.corpus[j].Name, err)
		}
		e.record(j, x, art)
		return nil
	})
	if err != nil {
		return nil, err
	}
	m.endToEnd(o, m.Ops, 1)
	o.Raw.set("compile_ms_p50", median(m.Ops)*1e3, "ms")
	o.Raw.set("compile_ms_p90", tail(m.Ops, 90)*1e3, "ms")
	if err := finishEndToEnd(o, setupS, setupWall); err != nil {
		return nil, err
	}

	if ctx.Trace {
		if err := e.tracedPass(o, m); err != nil {
			return nil, err
		}
	}

	oracleS := timed(func() { e.oracle(o) })
	o.harnessTimes(ctx.Trace, generatorS, oracleS)
	return o, nil
}

// oracle: every repeat compile reproduced the first artifact byte for
// byte; the compiled executable and its decode(encode()) image both run to
// the state the Generic gate-by-gate reference reaches, within 1e-10; the
// lying annotation was reported in Skipped (so it ran gate-level).
func (e *compileEnv) oracle(o *outcome) {
	for j, nc := range e.corpus {
		c := e.seen[j]
		if c.count == 0 {
			continue
		}
		o.fail(c.mismatch, "%s: %d recompiles produced different artifact bytes", nc.Name, c.mismatch)
		if err := e.checkCircuit(j); err != nil {
			o.fail(c.count-c.mismatch, "%s: %v", nc.Name, err)
		}
	}
}

func (e *compileEnv) checkCircuit(j int) error {
	nc, x := e.corpus[j], e.seen[j].exec
	if nc.Lying {
		caught := false
		for _, sk := range x.Skipped {
			caught = caught || strings.Contains(sk.Reason, "verification failed")
		}
		if !caught {
			return fmt.Errorf("lying annotation was not reported in Skipped")
		}
	}
	c, err := qasm.ParseString(nc.Text)
	if err != nil {
		return err
	}
	ref, err := openReference(c, e.ctx.Workers)
	if err != nil {
		return err
	}
	defer ref.Close()
	decoded, err := backend.Decode(e.seen[j].artifact)
	if err != nil {
		return err
	}
	for name, exe := range map[string]*backend.Executable{"compiled": x, "decoded": decoded} {
		if err := backend.VerifyExecutable(exe); err != nil {
			return fmt.Errorf("%s executable: %w", name, err)
		}
		b, err := backend.New(exe.Target)
		if err != nil {
			return err
		}
		_, err = b.Run(exe)
		if err == nil {
			if d := b.State().MaxDiff(ref.State()); d > 1e-10 {
				err = fmt.Errorf("%s executable runs to a state %.3g from the gate-by-gate reference", name, d)
			}
		}
		b.Close()
		if err != nil {
			return err
		}
	}
	return nil
}

// tracedPass walks the corpus with spans around the operation's stages
// and, outside the operation, around the layer calls Compile makes
// internally, issued directly with the same inputs.
func (e *compileEnv) tracedPass(o *outcome, untraced *meter) error {
	count := len(e.corpus)
	tr := newTracer()
	tm := newMeter(newSweepReference(1))
	tm.Stride = count
	var parsedBytes, artBytes, regions, covered, gatesTotal float64
	var predErr []float64
	err := tm.loop(e.ctx.passSeconds(), count, func(i int) error {
		j := i % count
		tr.nextOp()
		var x *backend.Executable
		var art []byte
		var err error
		tr.do("compile-op", func() { x, art, err = e.compileOp(tr, e.corpus[j].Text) })
		parsedBytes += float64(len(e.corpus[j].Text))
		if err != nil || i >= count {
			return err // probes and counts once per circuit
		}
		artBytes += float64(len(art))
		pr, err := e.layerProbes(tr, e.corpus[j].Text, x)
		if err != nil {
			return err
		}
		if pr.predicted {
			predErr = append(predErr, pr.predErr)
		}
		regions += float64(pr.plan.Ops)
		covered += float64(pr.plan.GatesEmulated)
		gatesTotal += float64(pr.plan.GatesTotal)
		return nil
	})
	if err != nil {
		return err
	}
	agg := aggregate(tr.spans)
	pl := o.PerLayer
	med := func(name string) float64 {
		if a := agg[name]; a != nil {
			return median(a.Durs)
		}
		return 0
	}
	pl.set("qasm.parse_us", med("qasm.parse")*1e6, "us")
	pl.set("qasm.parse_mb_per_s", parsedBytes/1e6/agg["qasm.parse"].Total, "MB/s")
	pl.set("recognize.analyze_ms", med("recognize.analyze")*1e3, "ms")
	pl.set("recognize.analyze_small_ms", med("recognize.analyze_small")*1e3, "ms")
	pl.set("recognize.regions", regions, "count")
	pl.set("recognize.covered_gate_share", covered/gatesTotal, "fraction")
	pl.set("fuse.plan_ms", med("fuse.plan")*1e3, "ms")
	pl.set("backend.fingerprint_us", med("backend.fingerprint")*1e6, "us")
	pl.set("backend.profile_select_ms", med("backend.profile_select")*1e3, "ms")
	pl.set("backend.compile_ms", med("backend.compile")*1e3, "ms")
	pl.set("backend.compile_explicit_ms", med("backend.compile_explicit")*1e3, "ms")
	pl.set("backend.compile_op_ms_p90", tail(agg["compile-op"].Durs, 90)*1e3, "ms")
	pl.set("backend.encode_us", med("backend.encode")*1e6, "us")
	pl.set("backend.decode_verify_us", med("backend.decode_verify")*1e6, "us")
	pl.set("backend.artifact_bytes", artBytes/float64(count), "B")
	pl.set("perfmodel.predict_err_share", median(predErr), "fraction")

	op := agg["compile-op"]
	pl.set("bench.unattributed_share", op.Self/op.Total, "fraction")
	// One compile-op span per timed call; the call itself also holds the
	// layer probes, the span does not.
	traced, plain := median(tm.normalised(op.Durs, 1)), median(untraced.normalised(untraced.Ops, 1))
	pl.set("bench.trace_overhead_share", (traced-plain)/plain, "fraction")
	return writeTrace(filepath.Join(e.ctx.OutDir, "trace-compile-cold.json"), "compile-cold", e.ctx.Seed, tr.spans)
}

// circuitProbe is what layerProbes learns about one circuit.
type circuitProbe struct {
	plan      recognize.Stats
	predicted bool    // the executable carries a selector prediction
	predErr   float64 // |predicted − measured run| / measured
}

// layerProbes issues, once per circuit, the layer calls Compile makes
// internally — recognition, fusion planning, fingerprinting, profile and
// select, an explicit-target compile — plus one run of the compiled
// executable to set the selector's predicted cost beside a measurement.
func (e *compileEnv) layerProbes(tr *tracer, text string, x *backend.Executable) (circuitProbe, error) {
	var pr circuitProbe
	c, err := qasm.ParseString(text)
	if err != nil {
		return pr, err
	}
	name := "recognize.analyze"
	if c.NumQubits <= 8 {
		name = "recognize.analyze_small" // brute-force verification fires
	}
	var plan *recognize.Plan
	tr.do(name, func() { plan = recognize.Analyze(c, recognize.DefaultOptions(recognize.Auto)) })
	pr.plan = plan.Stats()
	tr.do("fuse.plan", func() { fuse.New(c, 4) })
	tr.do("backend.fingerprint", func() { _, err = backend.Fingerprint(c, e.target(c.NumQubits)) })
	if err != nil {
		return pr, err
	}
	tr.do("backend.profile_select", func() {
		prof, _ := backend.ProfileCircuit(c)
		backend.SelectTarget(prof, perfmodel.Active())
	})
	explicit := backend.Target{NumQubits: c.NumQubits, Kind: backend.Fused, FuseWidth: 4,
		Emulate: recognize.Auto, Workers: e.ctx.Workers}
	tr.do("backend.compile_explicit", func() { _, err = backend.Compile(c, explicit) })
	if err != nil || x.Selection == nil {
		return pr, err
	}
	b, err := backend.New(x.Target)
	if err != nil {
		return pr, err
	}
	defer b.Close()
	if _, err := b.Run(x); err != nil { // first touch
		return pr, err
	}
	run := probe(func() {
		b.Reset()
		_, err = b.Run(x)
	})
	if err != nil {
		return pr, err
	}
	pr.predicted, pr.predErr = true, math.Abs(x.Selection.Cost-run)/run
	return pr, nil
}
