package serve_test

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/backend"
	"repro/internal/circuit"
	"repro/internal/gates"
	"repro/internal/noise"
	"repro/internal/qasm"
	"repro/internal/qft"
	"repro/internal/recognize"
	"repro/internal/rng"
	"repro/internal/serve"
)

// qasmOf renders a circuit to the qasm text the service accepts.
func qasmOf(t *testing.T, c *circuit.Circuit) string {
	t.Helper()
	var b strings.Builder
	if err := qasm.Write(&b, c); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// testCircuit builds an n-qubit prep + QFT workload (recognisable
// structure, non-trivial final state) with a distinguishing phase so
// different variants fingerprint differently.
func testCircuit(n uint, variant int) *circuit.Circuit {
	c := circuit.New(n)
	for q := uint(0); q < n; q++ {
		c.Append(gates.H(q))
	}
	c.Append(gates.Phase(0, 0.1+float64(variant)))
	c.Extend(qft.Circuit(n))
	return c
}

// directSamples draws the reference stream the service must match:
// compile + run + sample on a plain backend with the same target shape
// and seed.
func directSamples(t *testing.T, c *circuit.Circuit, tgt backend.Target, shots int, seed uint64) []uint64 {
	t.Helper()
	tgt.NumQubits = c.NumQubits
	b, err := backend.New(tgt)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	x, err := backend.Compile(c, b.Target())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Run(x); err != nil {
		t.Fatal(err)
	}
	return b.SampleMany(shots, rng.New(seed))
}

// TestServiceCacheHitSkipsCompile pins the tentpole property: after the
// first request compiles a circuit, every later request for it skips
// the pass pipeline entirely — the compile counter stays at 1.
func TestServiceCacheHitSkipsCompile(t *testing.T) {
	s, err := serve.New(serve.Config{Target: backend.Target{Emulate: recognize.Auto}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	src := qasmOf(t, testCircuit(8, 0))
	for i := 0; i < 5; i++ {
		res, err := s.Run(serve.RunRequest{Qasm: src, Shots: 3, Seed: uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
		if wantCached := i > 0; res.Cached != wantCached {
			t.Fatalf("request %d: cached = %v", i, res.Cached)
		}
	}
	if got := s.Compiles(); got != 1 {
		t.Fatalf("5 requests for one circuit ran the pipeline %d times, want 1", got)
	}
	st := s.Stats()
	if st.Requests != 5 || st.Cache.Hits != 4 {
		t.Fatalf("stats %+v: want 5 requests, 4 cache hits", st)
	}
}

// TestServiceMatchesDirectBackend: the served sample stream is
// draw-for-draw the stream a directly driven backend produces with the
// same target and seed — locally and on the distributed engine.
func TestServiceMatchesDirectBackend(t *testing.T) {
	for _, tgt := range []backend.Target{
		{Emulate: recognize.Auto, FuseWidth: 3},
		{Kind: backend.Cluster, Nodes: 2, Emulate: recognize.Auto},
	} {
		s, err := serve.New(serve.Config{Target: tgt})
		if err != nil {
			t.Fatal(err)
		}
		c := testCircuit(9, 1)
		res, err := s.Run(serve.RunRequest{Qasm: qasmOf(t, c), Shots: 50, Seed: 7})
		if err != nil {
			t.Fatalf("%v: %v", tgt.Kind, err)
		}
		want := directSamples(t, c, tgt, 50, 7)
		for i := range want {
			if res.Samples[i] != want[i] {
				t.Fatalf("%v: served stream diverges from direct backend at draw %d", tgt.Kind, i)
			}
		}
		if res.EmulatedGates == 0 {
			t.Fatalf("%v: served run emulated nothing", tgt.Kind)
		}
		s.Close()
	}
}

// TestServiceRunByKey: a compile hands out a key, run-by-key serves
// from it, and unknown keys fail with ErrUnknownKey.
func TestServiceRunByKey(t *testing.T) {
	s, err := serve.New(serve.Config{Target: backend.Target{Emulate: recognize.Auto}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cr, err := s.Compile(qasmOf(t, testCircuit(8, 2)))
	if err != nil {
		t.Fatal(err)
	}
	if cr.Cached || cr.EmulatedGates == 0 {
		t.Fatalf("first compile reported %+v", cr)
	}
	res, err := s.Run(serve.RunRequest{Key: cr.Key, Shots: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Key != cr.Key || len(res.Samples) != 10 {
		t.Fatalf("run by key returned %+v", res)
	}
	if _, err := s.Run(serve.RunRequest{Key: "no-such-key"}); !errors.Is(err, serve.ErrUnknownKey) {
		t.Fatalf("unknown key returned %v", err)
	}
	if got := s.Compiles(); got != 1 {
		t.Fatalf("run by key recompiled: %d pipeline runs", got)
	}
}

// TestServiceConcurrentRequests is the race suite: many goroutines
// hammer one service with interleaved compile and shot requests over a
// shared cached artifact, with per-request worker weights. Every
// request must succeed and every stream must match its seed's reference
// draw-for-draw, independent of interleaving. Run under -race in CI.
func TestServiceConcurrentRequests(t *testing.T) {
	tgt := backend.Target{Emulate: recognize.Auto, FuseWidth: 3}
	s, err := serve.New(serve.Config{Target: tgt, TotalWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	circuits := []*circuit.Circuit{testCircuit(8, 0), testCircuit(8, 1)}
	srcs := make([]string, len(circuits))
	refs := make([][][]uint64, len(circuits)) // refs[circuit][seed]
	const shots, seeds = 20, 4
	for i, c := range circuits {
		srcs[i] = qasmOf(t, c)
		refs[i] = make([][]uint64, seeds)
		for seed := 0; seed < seeds; seed++ {
			refs[i][seed] = directSamples(t, c, tgt, shots, uint64(seed))
		}
	}

	const workers, iters = 16, 12
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				ci := (g + it) % len(circuits)
				seed := (g * 31) % seeds
				if it%5 == 4 {
					// Interleave compile requests with shot requests.
					if _, err := s.Compile(srcs[ci]); err != nil {
						t.Errorf("goroutine %d: compile: %v", g, err)
						return
					}
					continue
				}
				res, err := s.Run(serve.RunRequest{
					Qasm: srcs[ci], Shots: shots, Seed: uint64(seed), Workers: 1 + g%3})
				if err != nil {
					t.Errorf("goroutine %d: run: %v", g, err)
					return
				}
				for i, v := range res.Samples {
					if v != refs[ci][seed][i] {
						t.Errorf("goroutine %d: circuit %d seed %d diverges at draw %d", g, ci, seed, i)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()

	if got := s.Compiles(); got != uint64(len(circuits)) {
		t.Fatalf("%d circuits compiled %d times under concurrency", len(circuits), got)
	}
}

// TestServiceEvictionDuringRuns: a cache with room for one session at a
// time forces every request to fight over residency. Eviction must
// never free a session mid-run — every request still succeeds and every
// stream stays seed-faithful.
func TestServiceEvictionDuringRuns(t *testing.T) {
	tgt := backend.Target{Emulate: recognize.Auto}
	// Budget fits exactly one 8-qubit session (16<<8 bytes).
	s, err := serve.New(serve.Config{Target: tgt, CacheBytes: 16 << 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	circuits := []*circuit.Circuit{testCircuit(8, 0), testCircuit(8, 1), testCircuit(8, 2)}
	srcs := make([]string, len(circuits))
	refs := make([][]uint64, len(circuits))
	const shots = 10
	for i, c := range circuits {
		srcs[i] = qasmOf(t, c)
		refs[i] = directSamples(t, c, tgt, shots, 99)
	}

	var wg sync.WaitGroup
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 8; it++ {
				ci := (g + it) % len(circuits)
				res, err := s.Run(serve.RunRequest{Qasm: srcs[ci], Shots: shots, Seed: 99})
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				for i, v := range res.Samples {
					if v != refs[ci][i] {
						t.Errorf("goroutine %d: circuit %d diverges at draw %d after eviction churn", g, ci, i)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if st := s.Stats(); st.Cache.Evictions == 0 && st.Cache.Rejected == 0 {
		t.Fatalf("eviction churn never happened — budget too generous for the test: %+v", st)
	}
}

// TestServiceNoRoomServedEphemerally: a circuit the cache cannot admit
// because every resident entry is pinned is still served — from an
// uncached session — and nothing resident is evicted for it. A trajectory
// batch fills the budget (its artifact pinned, its worker states
// reserved), and the shot requests its runner makes meanwhile find no room.
func TestServiceNoRoomServedEphemerally(t *testing.T) {
	c := testCircuit(4, 0)
	cost := uint64(16) << c.NumQubits
	s, err := serve.New(serve.Config{CacheBytes: (1 + noise.StatesPerWorker) * cost, TotalWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	src, other := qasmOf(t, c), qasmOf(t, testCircuit(4, 1))
	var inner error
	s.SetBatchRunner(func(x *backend.Executable, opts noise.Options) (*noise.Result, error) {
		for i := 0; i < 2 && inner == nil; i++ {
			_, inner = s.Run(serve.RunRequest{Qasm: other, Shots: 2, Seed: 1})
		}
		return noise.Run(x, opts)
	})
	if _, err := s.Run(serve.RunRequest{Qasm: src, Noise: "x:0.1", Trajectories: 4}); err != nil {
		t.Fatal(err)
	}
	if inner != nil {
		t.Fatalf("request with every entry pinned: %v", inner)
	}
	st := s.Stats().Cache
	if st.Entries != 1 || st.Rejected != 2 || st.Evictions != 0 || st.Pinned != 0 {
		t.Fatalf("no-room artifact handling: %+v", st)
	}
}

// TestServicePersistentWarmStart: a service restarted over the same
// persistence directory serves its first request from the decoded
// artifact without recompiling.
func TestServicePersistentWarmStart(t *testing.T) {
	dir := t.TempDir()
	tgt := backend.Target{Emulate: recognize.Auto}
	c := testCircuit(8, 3)
	src := qasmOf(t, c)

	s1, err := serve.New(serve.Config{Target: tgt, PersistDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	first, err := s1.Run(serve.RunRequest{Qasm: src, Shots: 10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	s1.Close()

	s2, err := serve.New(serve.Config{Target: tgt, PersistDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	res, err := s2.Run(serve.RunRequest{Qasm: src, Shots: 10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cached {
		t.Fatal("warm-started service missed its own artifact")
	}
	if got := s2.Compiles(); got != 0 {
		t.Fatalf("warm-started service recompiled %d times", got)
	}
	for i := range first.Samples {
		if res.Samples[i] != first.Samples[i] {
			t.Fatalf("warm-started stream diverges at draw %d", i)
		}
	}
}
