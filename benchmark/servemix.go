package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backend"
	"repro/internal/circuit"
	"repro/internal/noise"
	"repro/internal/qasm"
	"repro/internal/rng"
	"repro/internal/serve"
)

// serve-mix: two closed-loop HTTP clients replay one seeded request list
// against an in-process serve.Service behind httptest. The list mixes
// key-addressed hits, qasm-addressed hits (re-parsed and re-fingerprinted
// on every request), cold compiles of never-seen circuits under a cache
// budget small enough that admission evicts, and small noisy trajectory
// batches — reads beside writes on the cache, small states, the only
// workload with concurrency.

const (
	serveClients   = 2
	serveShots     = 256
	serveTrajs     = 16
	serveNoise     = "depolarizing:0.001"
	serveKeySet    = 8  // working-set circuits addressed by key
	serveQasmSet   = 4  // working-set circuits addressed by qasm text
	serveColdSlot  = 12 // cold circuits the cache budget leaves room for
	serveTrajSeeds = 8  // trajectory requests cycle through this many seeds
	// serveSampleEps is the running-mass slack when a response's samples
	// are checked against the Generic reference state: the session's state
	// may differ from it in the last bits (fusion, shortcuts).
	serveSampleEps = 1e-9
)

// Requests of each class in one block of 100; the reference is sampled
// between blocks. The class boundaries sit at the 78th, 93rd and 97th
// percentile of the request list, so the median lies well inside the key
// hits and the 90th percentile inside the hits.
const (
	serveKeyPerBlock  = 78
	serveQasmPerBlock = 15
	serveColdPerBlock = 4
	serveTrajPerBlock = 3
	serveBlock        = serveKeyPerBlock + serveQasmPerBlock + serveColdPerBlock + serveTrajPerBlock
)

type reqClass int

const (
	classKey reqClass = iota
	classQasm
	classCold
	classTraj
	numClasses
)

var classNames = [numClasses]string{"key_hit", "qasm_hit", "cold", "traj"}

// serveRequest is one generated request and, after it ran, its result.
type serveRequest struct {
	Class   reqClass
	Circuit int    // index into the working set (key/qasm), cold list (cold) or -1 (traj)
	Seed    uint64 // sampling / trajectory seed
	Body    []byte

	Status    int
	Samples   []uint64
	Seconds   float64
	RespBytes int
	Err       error
}

// serveInput is the generated side of the workload.
type serveInput struct {
	src      *rng.Source
	sizes    []uint
	workset  []string // qasm text; [0,serveKeySet) by key, the rest by qasm
	trajText string
	colds    []string // every cold circuit generated so far
	coldN    []uint
	keys     []string // artifact keys of workset, filled by set-up
	nextSeed uint64
}

func serveCircuit(src *rng.Source, n uint) (string, error) {
	return qasmText(genBrickwork(src, src, n, 6+src.Intn(4)))
}

func newServeInput(seed uint64, smoke bool) (*serveInput, error) {
	in := &serveInput{src: stream(seed, "serve-mix"), sizes: []uint{12, 14, 16, 18}, coldN: []uint{12, 14}}
	if smoke {
		in.sizes, in.coldN = []uint{6, 8, 10, 12}, []uint{6, 8}
	}
	for i := 0; i < serveKeySet+serveQasmSet; i++ {
		text, err := serveCircuit(in.src, in.sizes[i%len(in.sizes)])
		if err != nil {
			return nil, err
		}
		in.workset = append(in.workset, text)
	}
	var err error
	in.trajText, err = serveCircuit(in.src, in.sizes[0])
	return in, err
}

// budget is the cache budget: the working set, the trajectory artifact
// with one worker session, and room for serveColdSlot cold circuits.
// Every working-set entry is touched at least once per half block and a
// half block holds two cold circuits, so with a dozen slots the
// least-recently-used victim is always a stale cold circuit: admission
// and eviction run on every cold request once the slots are full, and no
// key a later request names is ever evicted.
func (in *serveInput) budget() uint64 {
	var b uint64
	for i := range in.workset {
		b += 16 << in.sizes[i%len(in.sizes)]
	}
	b += 2 * (16 << in.sizes[0])
	b += serveColdSlot * (16 << in.coldN[len(in.coldN)-1])
	return b
}

// nextBlock generates the next block of requests: two shuffled halves,
// each naming every working-set circuit at least once.
func (in *serveInput) nextBlock() ([]*serveRequest, error) {
	var block []*serveRequest
	for half := 0; half < 2; half++ {
		var reqs []*serveRequest
		add := func(class reqClass, circ int, body serve.RunRequest) error {
			in.nextSeed++
			body.Seed = in.nextSeed
			if class == classTraj {
				// The service caches no trajectory outcomes, so a repeated
				// seed costs it the same; the oracle recomputes each of the
				// few distinct batches once.
				body.Seed %= serveTrajSeeds
			}
			data, err := json.Marshal(body)
			if err != nil {
				return err
			}
			reqs = append(reqs, &serveRequest{Class: class, Circuit: circ, Seed: body.Seed, Body: data})
			return nil
		}
		nKey, nQasm := serveKeyPerBlock/2, serveQasmPerBlock/2+(serveQasmPerBlock%2)*(1-half)
		nCold, nTraj := serveColdPerBlock/2, serveTrajPerBlock/2+(serveTrajPerBlock%2)*half
		for i := 0; i < nKey; i++ {
			j := i
			if i >= serveKeySet {
				j = in.src.Intn(serveKeySet)
			}
			if err := add(classKey, j, serve.RunRequest{Key: in.keys[j], Shots: serveShots}); err != nil {
				return nil, err
			}
		}
		for i := 0; i < nQasm; i++ {
			j := serveKeySet + i
			if i >= serveQasmSet {
				j = serveKeySet + in.src.Intn(serveQasmSet)
			}
			if err := add(classQasm, j, serve.RunRequest{Qasm: in.workset[j], Shots: serveShots}); err != nil {
				return nil, err
			}
		}
		for i := 0; i < nCold; i++ {
			text, err := serveCircuit(in.src, in.coldN[len(in.colds)%len(in.coldN)])
			if err != nil {
				return nil, err
			}
			in.colds = append(in.colds, text)
			if err := add(classCold, len(in.colds)-1, serve.RunRequest{Qasm: text, Shots: serveShots}); err != nil {
				return nil, err
			}
		}
		for i := 0; i < nTraj; i++ {
			if err := add(classTraj, -1, serve.RunRequest{Qasm: in.trajText, Noise: serveNoise,
				Trajectories: serveTrajs}); err != nil {
				return nil, err
			}
		}
		for _, p := range in.src.Perm(len(reqs)) {
			block = append(block, reqs[p])
		}
	}
	return block, nil
}

// serveEnv is one opened service.
type serveEnv struct {
	ctx    *runCtx
	ref    *httpReference
	in     *serveInput
	svc    *serve.Service
	srv    *httptest.Server
	client *http.Client
}

func (e *serveEnv) target() backend.Target {
	return backend.Target{Auto: true, Workers: e.ctx.Workers}
}

func (e *serveEnv) close() {
	if e.srv != nil {
		e.srv.Close()
		e.svc.Close()
		e.srv, e.svc = nil, nil
	}
}

// open is one set-up cycle: a new service behind a new test server, the
// working set compiled through POST /v1/compile and each session prepared
// by a first run.
func (e *serveEnv) open() error {
	svc, err := serve.New(serve.Config{Target: e.target(), CacheBytes: e.in.budget(), TotalWorkers: e.ctx.Workers})
	if err != nil {
		return err
	}
	e.svc = svc
	e.srv = httptest.NewServer(svc.Handler())
	e.client = e.srv.Client()
	e.in.keys = e.in.keys[:0]
	for _, text := range e.in.workset {
		body, err := json.Marshal(map[string]string{"qasm": text})
		if err != nil {
			return err
		}
		var res serve.CompileResult
		if status, _, err := e.post("/v1/compile", body, &res); err != nil || status != http.StatusOK {
			return fmt.Errorf("compile working set: status %d: %v", status, err)
		}
		e.in.keys = append(e.in.keys, res.Key)
		warm, err := json.Marshal(serve.RunRequest{Key: res.Key, Shots: 1})
		if err != nil {
			return err
		}
		if status, _, err := e.post("/v1/run", warm, &serve.RunResult{}); err != nil || status != http.StatusOK {
			return fmt.Errorf("warm working set: status %d: %v", status, err)
		}
	}
	return nil
}

// post sends one JSON request and decodes a 200 response into out.
func (e *serveEnv) post(path string, body []byte, out any) (status, respBytes int, err error) {
	resp, err := e.client.Post(e.srv.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, len(data), fmt.Errorf("%s", bytes.TrimSpace(data))
	}
	return resp.StatusCode, len(data), json.Unmarshal(data, out)
}

// do runs one request over HTTP, two timestamps around the round trip.
func (e *serveEnv) do(tr *tracer, r *serveRequest) {
	tr.nextOp()
	start := time.Now()
	tr.do("serve.request."+classNames[r.Class], func() {
		var res serve.RunResult
		tr.do("serve.http", func() { r.Status, r.RespBytes, r.Err = e.post("/v1/run", r.Body, &res) })
		r.Samples = res.Samples
	})
	r.Seconds = time.Since(start).Seconds()
}

// runBlock lets the closed-loop clients drain one block and returns when
// both are idle. trs holds one tracer per client, or nil entries.
func (e *serveEnv) runBlock(block []*serveRequest, trs []*tracer, perRequest func(client int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(block) {
					return
				}
				e.do(trs[c], block[i])
				if perRequest != nil {
					perRequest(c)
				}
			}
		}(c)
	}
	wg.Wait()
}

// pass replays freshly generated blocks, at least one, for the run's pass
// length. Blocks are generated between timed intervals. It returns the
// meter (one timed call per block) and every request it ran.
func (e *serveEnv) pass(trs []*tracer, perRequest func(client int), generatorS *float64) (*meter, []*serveRequest, error) {
	m := newMeter(e.ref)
	var block, reqs []*serveRequest
	m.Prepare = func(int) error {
		var err error
		*generatorS += timed(func() { block, err = e.in.nextBlock() })
		return err
	}
	err := m.loop(e.ctx.passSeconds(), 1, func(int) error {
		e.runBlock(block, trs, perRequest)
		reqs = append(reqs, block...)
		return nil
	})
	return m, reqs, err
}

func latencies(reqs []*serveRequest, class reqClass) []float64 {
	var out []float64
	for _, r := range reqs {
		if class == numClasses || r.Class == class {
			out = append(out, r.Seconds)
		}
	}
	return out
}

func runServeMix(ctx *runCtx) (*outcome, error) {
	o := newOutcome("serve-mix")
	var in *serveInput
	var genErr error
	generatorS := timed(func() { in, genErr = newServeInput(ctx.Seed, ctx.Smoke) })
	if genErr != nil {
		return nil, genErr
	}
	e := &serveEnv{ctx: ctx, in: in, ref: newHTTPReference(serveClients)}
	defer e.ref.close()
	defer e.close()
	setupS, setupWall, err := setupCycles(ctx.setupRepeats(), e.ref, e.close, e.open)
	if err != nil {
		return nil, err
	}

	m, reqs, err := e.pass(make([]*tracer, serveClients), nil, &generatorS)
	if err != nil {
		return nil, err
	}
	all := latencies(reqs, numClasses)
	m.endToEnd(o, all, serveBlock)
	o.Raw.set("req_ms_p50", median(all)*1e3, "ms")
	o.Raw.set("req_ms_p90", tail(all, 90)*1e3, "ms")
	o.Raw.set("req_per_s", float64(len(all))/m.wall.Seconds(), "1/s")
	if err := finishEndToEnd(o, setupS, setupWall); err != nil {
		return nil, err
	}

	if ctx.Trace {
		traced, err := e.tracedPass(o, m, all, &generatorS)
		if err != nil {
			return nil, err
		}
		reqs = append(reqs, traced...) // checked too; attempted counts the untraced pass

	}

	if ctx.CorruptSample {
		reqs[0].Samples[0] ^= 1
	}
	oracleS := timed(func() { e.oracle(o, reqs) })
	o.harnessTimes(ctx.Trace, generatorS, oracleS)
	return o, nil
}

// oracle: every response is 200 and its samples equal what an
// independent run draws under the request's seed — for shot requests the
// benchmark's own sampler over the gate-by-gate Generic reference state of
// the circuit, for trajectory batches a direct noise.Run on a separately
// compiled executable. HTTP errors and refusals are failures.
func (e *serveEnv) oracle(o *outcome, reqs []*serveRequest) {
	refs := map[string]*cdfTable{} // by circuit text
	reference := func(text string) (*cdfTable, error) {
		if t, ok := refs[text]; ok {
			return t, nil
		}
		c, err := qasm.ParseString(text)
		if err != nil {
			return nil, err
		}
		b, err := openReference(c, e.ctx.Workers)
		if err != nil {
			return nil, err
		}
		defer b.Close()
		refs[text] = newCDFTable(b.State())
		return refs[text], nil
	}
	var noisy *backend.Executable
	trajWant := map[uint64][]uint64{} // by seed
	bad := 0
	var firstErr error
	for _, r := range reqs {
		err := r.Err
		if err == nil && r.Status != http.StatusOK {
			err = fmt.Errorf("status %d", r.Status)
		}
		ok := true
		switch {
		case err != nil:
		case r.Class == classTraj:
			if noisy == nil {
				noisy, err = compileNoisy(e.in.trajText, serveNoise, e.target())
			}
			if _, seen := trajWant[r.Seed]; err == nil && !seen {
				var res *noise.Result
				res, err = noise.Run(noisy, noise.Options{Trajectories: serveTrajs, Seed: r.Seed, Workers: 1})
				if err == nil {
					trajWant[r.Seed] = res.Outcomes
				}
			}
			ok = slices.Equal(r.Samples, trajWant[r.Seed])
		default:
			text := e.in.colds
			if r.Class != classCold {
				text = e.in.workset
			}
			var ref *cdfTable
			if ref, err = reference(text[r.Circuit]); err == nil {
				ok = len(r.Samples) == serveShots && ref.matches(r.Samples, rng.New(r.Seed), serveSampleEps)
			}
			if r.Class == classCold {
				delete(refs, text[r.Circuit]) // a cold circuit is asked for once
			}
		}
		if err == nil && !ok {
			err = fmt.Errorf("samples differ from the reference draw")
		}
		if err != nil {
			bad++
			if firstErr == nil {
				firstErr = fmt.Errorf("%s request (seed %d): %w", classNames[r.Class], r.Seed, err)
			}
		}
	}
	o.fail(bad, "%d requests failed; first: %v", bad, firstErr)
}

// compileNoisy compiles qasm text with a global noise spec attached, the
// way Service.resolve does.
func compileNoisy(text, spec string, t backend.Target) (*backend.Executable, error) {
	c, err := qasm.ParseString(text)
	if err != nil {
		return nil, err
	}
	if err := noise.Attach(c, spec); err != nil {
		return nil, err
	}
	return backend.Compile(c, t)
}

// tracedPass replays further blocks with a span around every request and
// its HTTP round trip, one tracer per client, samples the service's
// pinned bytes after each request, and probes what a request pays inside
// the service with direct calls: parse and fingerprint of a qasm-addressed
// text, an in-process Service.Run of a key hit (the HTTP overhead is the
// difference), a 256-shot draw.
func (e *serveEnv) tracedPass(o *outcome, untraced *meter, untracedLat []float64, generatorS *float64) ([]*serveRequest, error) {
	trs := make([]*tracer, serveClients)
	for i := range trs {
		trs[i] = newTracer()
	}
	var pinnedMax atomic.Uint64
	tm, reqs, err := e.pass(trs, func(int) {
		p := e.svc.Stats().Cache.PinnedBytes
		for old := pinnedMax.Load(); p > old && !pinnedMax.CompareAndSwap(old, p); old = pinnedMax.Load() {
		}
	}, generatorS)
	if err != nil {
		return nil, err
	}
	tr := trs[0]
	for _, other := range trs[1:] {
		tr.merge(other)
	}
	pl := o.PerLayer
	for class := reqClass(0); class < numClasses; class++ {
		pl.set("serve."+classNames[class]+"_ms_p50", median(latencies(reqs, class))*1e3, "ms")
	}
	pl.set("serve.req_ms_p90", tail(latencies(reqs, numClasses), 90)*1e3, "ms")
	var respBytes []float64
	for _, r := range reqs {
		respBytes = append(respBytes, float64(r.RespBytes))
	}
	pl.set("serve.resp_bytes_p50", median(respBytes), "B")
	st := e.svc.Stats()
	pl.set("serve.hit_ratio", float64(st.Cache.Hits)/float64(st.Cache.Hits+st.Cache.Misses), "fraction")
	pl.set("serve.evictions", float64(st.Cache.Evictions), "count")
	pl.set("serve.compiles", float64(st.Compiles), "count")
	pl.set("serve.pinned_bytes_max", float64(pinnedMax.Load()), "B")

	// Direct probes on the largest working-set circuit.
	big := serveKeySet + serveQasmSet - 1
	text := e.in.workset[big]
	var c *circuit.Circuit
	parseS := probe(func() { c, err = qasm.ParseString(text) })
	if err != nil {
		return nil, err
	}
	pl.set("qasm.parse_us", parseS*1e6, "us")
	pl.set("qasm.parse_mb_per_s", float64(len(text))/1e6/parseS, "MB/s")
	t := e.target()
	t.NumQubits = c.NumQubits
	pl.set("backend.fingerprint_us", probe(func() { _, err = backend.Fingerprint(c, t) })*1e6, "us")
	if err != nil {
		return nil, err
	}
	hit := serve.RunRequest{Key: e.in.keys[big], Shots: serveShots, Seed: 1}
	inproc := probe(func() { _, err = e.svc.Run(hit) })
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(hit)
	if err != nil {
		return nil, err
	}
	overHTTP := probe(func() { _, _, err = e.post("/v1/run", body, &serve.RunResult{}) })
	if err != nil {
		return nil, err
	}
	pl.set("serve.http_overhead_us", (overHTTP-inproc)*1e6, "us")
	pl.set("backend.sample_us_per_shot", inproc*1e6/serveShots, "us")

	agg := aggregate(tr.spans)
	var self, total float64
	for name, a := range agg {
		if name != "serve.http" {
			self, total = self+a.Self, total+a.Total
		}
	}
	pl.set("bench.unattributed_share", self/total, "fraction")
	lat := latencies(reqs, numClasses)
	traced, plain := median(tm.normalised(lat, serveBlock)), median(untraced.normalised(untracedLat, serveBlock))
	pl.set("bench.trace_overhead_share", (traced-plain)/plain, "fraction")
	return reqs, writeTrace(filepath.Join(e.ctx.OutDir, "trace-serve-mix.json"), "serve-mix", e.ctx.Seed, tr.spans)
}
