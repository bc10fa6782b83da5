package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// TestMain moves to the repository root, where run.sh starts the benchmark
// and BENCHMARK.json lives.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, tc := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {100, 5}, {25, 2}, {90, 4.6}} {
		if got := percentile(xs, tc.p); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
	if median(nil) != 0 {
		t.Error("median of nothing should read 0")
	}
}

// A tail percentile is reported only with at least ten samples beyond it.
func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	if supportsPercentile(99, 90) {
		t.Error("99 samples leave 9.9 beyond p90; must not support it")
	}
	if !supportsPercentile(100, 90) {
		t.Error("100 samples leave 10 beyond p90; must support it")
	}
	if supportsPercentile(999, 99) || !supportsPercentile(1000, 99) {
		t.Error("p99 needs 1000 samples")
	}
	small := make([]float64, 50)
	if tail(small, 90) != 0 {
		t.Error("tail of a too-small sample should read 0")
	}
}

func TestSpanSelfTime(t *testing.T) {
	// op [0,100) with children a [10,40) and b [50,70); b has child c [55,60).
	spans := []span{
		{ID: 0, Parent: -1, Name: "op", Start: 0, End: 100e9},
		{ID: 1, Parent: 0, Name: "a", Start: 10e9, End: 40e9},
		{ID: 2, Parent: 0, Name: "b", Start: 50e9, End: 70e9},
		{ID: 3, Parent: 2, Name: "c", Start: 55e9, End: 60e9},
		{ID: 4, Parent: -1, Name: "op", Start: 100e9, End: 110e9},
	}
	agg := aggregate(spans)
	check := func(name string, count int, total, self float64) {
		t.Helper()
		a := agg[name]
		if a == nil || a.Count != count || math.Abs(a.Total-total) > 1e-9 || math.Abs(a.Self-self) > 1e-9 {
			t.Errorf("%s: got %+v, want count %d total %v self %v", name, a, count, total, self)
		}
	}
	check("op", 2, 110, 60) // 100 - 30 - 20, plus the childless 10
	check("a", 1, 30, 30)
	check("b", 1, 20, 15)
	check("c", 1, 5, 5)

	// The tracer nests by call structure and tolerates being nil.
	var off *tracer
	ran := false
	off.do("x", func() { ran = true })
	off.nextOp()
	if !ran {
		t.Error("nil tracer did not run the function")
	}
	tr := newTracer()
	tr.nextOp()
	tr.do("outer", func() { tr.do("inner", func() {}) })
	if len(tr.spans) != 2 || tr.spans[1].Parent != 0 || tr.spans[0].Parent != -1 || tr.spans[1].Req != 1 {
		t.Errorf("unexpected span tree %+v", tr.spans)
	}
	other := newTracer()
	other.nextOp()
	other.do("outer", func() { other.do("inner", func() {}) })
	tr.merge(other)
	if len(tr.spans) != 4 || tr.spans[3].Parent != 2 || tr.spans[3].ID != 3 || tr.spans[3].Req != 2 {
		t.Errorf("merge did not rebase ids: %+v", tr.spans)
	}
}

func TestCompareBounds(t *testing.T) {
	sp, err := readSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(op, rate float64, failed int) *resultFile {
		o := newOutcome("gate-sweep")
		o.Attempted, o.Failed = 100, failed
		o.EndToEnd.set("op_norm_s_p50", op, "s")
		o.EndToEnd.set("ops_per_norm_s", rate, "1/s")
		o.EndToEnd.set("setup_s", 1, "s")
		o.EndToEnd.set("peak_rss_mb", 100, "MiB")
		return &resultFile{Workloads: map[string]*outcome{"gate-sweep": o}}
	}
	bound := func(name string) float64 {
		for _, ms := range sp.EndToEnd {
			if ms.Name == name {
				return ms.Bound
			}
		}
		t.Fatalf("no end-to-end metric %s", name)
		return 0
	}
	opBound, rateBound := bound("op_norm_s_p50"), bound("ops_per_norm_s")
	var sink bytes.Buffer
	base := mk(100, 10, 0)
	for _, tc := range []struct {
		name string
		b    *resultFile
		want int
	}{
		{"identical", mk(100, 10, 0), 0},
		{"inside the bound", mk(100*(1+0.9*opBound), 10*(1-0.9*rateBound), 0), 0},
		{"better is never a regression", mk(50, 20, 0), 0},
		{"lower-is-better beyond its bound", mk(100*(1+1.1*opBound), 10, 0), 1},
		{"higher-is-better beyond its bound", mk(100, 10*(1-1.1*rateBound), 0), 1},
		{"error share grew", mk(100, 10, 1), 1},
	} {
		if got := compareResults(sp, base, tc.b, &sink); got != tc.want {
			t.Errorf("%s: %d regressions, want %d", tc.name, got, tc.want)
		}
	}
	if !strings.Contains(sink.String(), "b/a") {
		t.Error("comparison table does not state the ratio's base")
	}
}

// corpusHash digests every generated input of one seed at full size: the
// three solve circuits, the compile corpus, the serve working set with its
// first request block, and the trajectory circuit.
func corpusHash(t *testing.T, seed uint64) string {
	t.Helper()
	h := sha256.New()
	add := func(text string, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		h.Write([]byte(text))
		h.Write([]byte{0})
	}
	for _, spec := range []solveSpec{gateSweepSpec, emulateMixSpec, clusterShardSpec} {
		add(qasmText(spec.Gen(stream(seed, spec.Name), spec.N)))
	}
	corpus, err := genCompileCorpus(stream(seed, "compile-cold"), corpusCount, corpusSizes)
	if err != nil {
		t.Fatal(err)
	}
	lying := 0
	for _, nc := range corpus {
		add(nc.Name+"\n"+nc.Text, nil)
		if nc.Lying {
			lying++
		}
	}
	if lying != 1 {
		t.Fatalf("corpus has %d lying annotations, want exactly 1", lying)
	}
	in, err := newServeInput(seed, false)
	if err != nil {
		t.Fatal(err)
	}
	in.keys = make([]string, len(in.workset)) // keys come from the service, not the generator
	block, err := in.nextBlock()
	if err != nil {
		t.Fatal(err)
	}
	for _, text := range in.workset {
		add(text, nil)
	}
	for _, r := range block {
		add(string(r.Body), nil)
	}
	add(qasmText(genNoiseTraj(stream(seed, "noise-traj"), trajQubits, trajNoiseP)))
	return hex.EncodeToString(h.Sum(nil))
}

// seedOneHash pins the seed-1 inputs. A change here means every earlier
// result file was measured on different inputs: re-baseline.
const seedOneHash = "56db169b9678704328c512ab45c91ffea5dd45b9bc2e814ed66939d0e31934f2"

func TestGeneratorDeterminism(t *testing.T) {
	one := corpusHash(t, 1)
	if again := corpusHash(t, 1); again != one {
		t.Fatal("the same seed generated different inputs")
	}
	if one != seedOneHash {
		t.Errorf("seed-1 corpus hash is %s, pinned %s", one, seedOneHash)
	}
	if corpusHash(t, 2) == one {
		t.Error("seed 2 generated the seed-1 inputs")
	}
}

func TestServeBlockShape(t *testing.T) {
	in, err := newServeInput(1, true)
	if err != nil {
		t.Fatal(err)
	}
	in.keys = make([]string, len(in.workset))
	block, err := in.nextBlock()
	if err != nil {
		t.Fatal(err)
	}
	var perClass [numClasses]int
	for half := 0; half < 2; half++ {
		seen := map[int]bool{}
		for _, r := range block[half*len(block)/2 : (half+1)*len(block)/2] {
			if r.Class == classKey || r.Class == classQasm {
				seen[r.Circuit] = true
			}
		}
		if len(seen) != serveKeySet+serveQasmSet {
			t.Errorf("half %d names %d of the %d working-set circuits", half, len(seen), serveKeySet+serveQasmSet)
		}
	}
	for _, r := range block {
		perClass[r.Class]++
	}
	want := [numClasses]int{serveKeyPerBlock, serveQasmPerBlock, serveColdPerBlock, serveTrajPerBlock}
	if perClass != want {
		t.Errorf("block classes %v, want %v", perClass, want)
	}
}

// smokeCtx is a smoke run writing under the test's temp directory.
func smokeCtx(t *testing.T, trace bool) *runCtx {
	t.Helper()
	dir := t.TempDir()
	workers, err := pinEnvironment(dir)
	if err != nil {
		t.Fatal(err)
	}
	return &runCtx{Seed: 1, Seconds: 1, Workers: workers, Smoke: true, Trace: trace, OutDir: dir}
}

// TestSmoke drives every workload end to end at toy sizes — generators,
// set-up, timed loop, oracles, traced pass, probes, contract line — so
// every code path builds and runs under go test.
func TestSmoke(t *testing.T) {
	sp, err := readSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("%s lists %d workloads, the registry %d", specPath, len(sp.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if sp.Workloads[i].Name != w.Name || sp.Workloads[i].Why == "" {
			t.Errorf("%s workload %d is %q, registry has %q", specPath, i, sp.Workloads[i].Name, w.Name)
		}
		for _, trace := range []bool{false, true} {
			start := time.Now()
			var out, errOut bytes.Buffer
			ctx := smokeCtx(t, trace)
			if code := runOne(sp, ctx, w.Name, &out, &errOut); code != 0 {
				t.Fatalf("%s trace=%v: exit %d\n%s%s", w.Name, trace, code, out.String(), errOut.String())
			}
			t.Logf("%s trace=%v took %v", w.Name, trace, time.Since(start))
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var line map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				t.Fatalf("%s: last line is not JSON: %v", w.Name, err)
			}
			if len(line) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil || line["metrics"] == nil {
				t.Errorf("%s: contract line has keys %v", w.Name, line)
			}
			var got metrics
			if err := json.Unmarshal(line["metrics"], &got); err != nil {
				t.Fatal(err)
			}
			want := sp.EndToEnd
			if trace {
				want = sp.PerLayer
			}
			if len(got) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, trace, len(got), len(want))
			}
			for _, ms := range want {
				m, ok := got[ms.Name]
				if !ok || m.Unit != ms.Unit {
					t.Errorf("%s trace=%v: metric %s missing or in unit %q, want %q", w.Name, trace, ms.Name, m.Unit, ms.Unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s reads %v", w.Name, ms.Name, m.Value)
				}
			}
		}
	}
}

// A wrong answer must fail the run: one drawn sample is flipped before the
// oracles look.
func TestCorruptedSampleFailsTheRun(t *testing.T) {
	sp, err := readSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"gate-sweep", "serve-mix", "noise-traj"} {
		ctx := smokeCtx(t, false)
		ctx.CorruptSample = true
		var out, errOut bytes.Buffer
		if code := runOne(sp, ctx, name, &out, &errOut); code == 0 {
			t.Errorf("%s: a corrupted sample still exits 0\n%s", name, out.String())
		}
		if !strings.Contains(out.String(), `"correct":false`) {
			t.Errorf("%s: contract line does not say correct:false\n%s", name, out.String())
		}
	}
}
