package serve_test

import (
	"errors"
	"testing"

	"repro/internal/backend"
	"repro/internal/circuit"
	"repro/internal/noise"
	"repro/internal/serve"
)

// TestTrajectoryBatchCompilesOnce pins the acceptance property: an
// N-trajectory noisy batch is served from exactly one compile and one
// cache entry, and later batches for the same (qasm, noise) pair hit
// the cache.
func TestTrajectoryBatchCompilesOnce(t *testing.T) {
	s, err := serve.New(serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	src := qasmOf(t, testCircuit(4, 0))

	const n = 64
	r1, err := s.Run(serve.RunRequest{Qasm: src, Noise: "depolarizing:0.01", Trajectories: n, Seed: 9, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Samples) != n || r1.Trajectories != n {
		t.Fatalf("batch returned %d samples, %d trajectories; want %d", len(r1.Samples), r1.Trajectories, n)
	}
	if r1.NoisePoints == 0 {
		t.Fatal("noisy batch reports no insertion points")
	}
	if got := s.Compiles(); got != 1 {
		t.Fatalf("N-trajectory batch ran the pass pipeline %d times, want exactly 1", got)
	}

	r2, err := s.Run(serve.RunRequest{Qasm: src, Noise: "depolarizing:0.01", Trajectories: n, Seed: 9, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Cached {
		t.Fatal("second batch missed the cache")
	}
	if got := s.Compiles(); got != 1 {
		t.Fatalf("repeat batch recompiled (pipeline ran %d times)", got)
	}
	// Key addressing works for batches too, and the seed pins the
	// realisations whatever the worker striping.
	r3, err := s.Run(serve.RunRequest{Key: r1.Key, Trajectories: n, Seed: 9, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.Samples {
		if r1.Samples[i] != r2.Samples[i] || r1.Samples[i] != r3.Samples[i] {
			t.Fatalf("trajectory %d outcomes diverge across requests (%d, %d, %d) — realisations must be worker-count independent",
				i, r1.Samples[i], r2.Samples[i], r3.Samples[i])
		}
	}
	if got := s.Compiles(); got != 1 {
		t.Fatalf("keyed batch recompiled (pipeline ran %d times)", got)
	}
}

// TestNoiseSpecShapesCacheKey: the request's noise field lands on the
// circuit before fingerprinting — same qasm, different channel, is a
// different artifact; the ideal circuit is a third.
func TestNoiseSpecShapesCacheKey(t *testing.T) {
	s, err := serve.New(serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	src := qasmOf(t, testCircuit(4, 0))

	keys := make(map[string]string)
	for _, req := range []serve.RunRequest{
		{Qasm: src, Shots: 4},
		{Qasm: src, Noise: "depolarizing:0.001", Trajectories: 4},
		{Qasm: src, Noise: "depolarizing:0.01", Trajectories: 4},
		{Qasm: src, Noise: "ampdamp:0.01", Trajectories: 4},
	} {
		r, err := s.Run(req)
		if err != nil {
			t.Fatalf("%q: %v", req.Noise, err)
		}
		if prev, dup := keys[r.Key]; dup {
			t.Fatalf("noise specs %q and %q share cache key %.12s…", req.Noise, prev, r.Key)
		}
		keys[r.Key] = req.Noise
	}
	if got := s.Compiles(); got != 4 {
		t.Fatalf("4 distinct (qasm, noise) pairs compiled %d times", got)
	}
}

// TestQasmNoiseDirectiveServes: noise declared in the qasm source
// itself (the `noise` directive) flows through Write/Parse into the
// compiled plan with no request field needed.
func TestQasmNoiseDirectiveServes(t *testing.T) {
	s, err := serve.New(serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := testCircuit(3, 0)
	c.SetGlobalNoise(circuit.Channel{Kind: circuit.PhaseDamping, P: 0.05})
	r, err := s.Run(serve.RunRequest{Qasm: qasmOf(t, c), Trajectories: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.NoisePoints == 0 {
		t.Fatal("qasm noise directive compiled to an empty plan")
	}
}

// TestTrajectoryRequestValidation: the mutually-exclusive and
// dependent-field rules are client errors, not 500s.
func TestTrajectoryRequestValidation(t *testing.T) {
	s, err := serve.New(serve.Config{MaxShots: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	src := qasmOf(t, testCircuit(3, 0))

	cases := []struct {
		name string
		req  serve.RunRequest
	}{
		{"noise without trajectories", serve.RunRequest{Qasm: src, Noise: "x:0.1"}},
		{"noise with key addressing", serve.RunRequest{Key: "abc", Noise: "x:0.1", Trajectories: 4}},
		{"shots and trajectories", serve.RunRequest{Qasm: src, Shots: 4, Trajectories: 4}},
		{"trajectories over budget", serve.RunRequest{Qasm: src, Trajectories: 101}},
		{"malformed spec", serve.RunRequest{Qasm: src, Noise: "warp", Trajectories: 4}},
		{"probability out of range", serve.RunRequest{Qasm: src, Noise: "x:1.5", Trajectories: 4}},
	}
	for _, tc := range cases {
		if _, err := s.Run(tc.req); err == nil || !serve.IsBadRequest(err) {
			t.Errorf("%s: err = %v, want a bad-request rejection", tc.name, err)
		}
	}
}

// TestTrajectoryBatchBudgetAccounting: the batch's per-worker session
// states count against the cache's memory budget; a budget with no
// headroom beyond the pinned artifact rejects the batch instead of
// silently blowing past it.
func TestTrajectoryBatchBudgetAccounting(t *testing.T) {
	c := testCircuit(4, 0)
	cost := uint64(16) << c.NumQubits
	s, err := serve.New(serve.Config{CacheBytes: cost}) // room for the artifact session only
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	src := qasmOf(t, c)

	_, err = s.Run(serve.RunRequest{Qasm: src, Noise: "x:0.1", Trajectories: 8, Workers: 2})
	if err == nil || !serve.IsBadRequest(err) {
		t.Fatalf("zero-headroom budget admitted a 2-worker batch (err %v)", err)
	}

	// The artifact plus what 2 workers pin fits; one state less does not.
	fits := (1 + 2*noise.StatesPerWorker) * cost
	short, err := serve.New(serve.Config{CacheBytes: fits - cost})
	if err != nil {
		t.Fatal(err)
	}
	defer short.Close()
	if _, err := short.Run(serve.RunRequest{Qasm: src, Noise: "x:0.1", Trajectories: 8, Workers: 2}); err == nil || !serve.IsBadRequest(err) {
		t.Fatalf("a budget one state short admitted a 2-worker batch (err %v)", err)
	}
	s2, err := serve.New(serve.Config{CacheBytes: fits})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, err := s2.Run(serve.RunRequest{Qasm: src, Noise: "x:0.1", Trajectories: 8, Workers: 2}); err != nil {
		t.Fatalf("a budget of the artifact and 2 workers' states rejected a 2-worker batch: %v", err)
	}
}

// TestTrajectoryBatchReservation reads the cache's accounting while a batch
// runs: every trajectory worker holds noise.StatesPerWorker states, so a
// batch of weight w reserves w × StatesPerWorker sessions beside its
// artifact, and the reservation returns to zero when the batch ends —
// after a failing batch too.
func TestTrajectoryBatchReservation(t *testing.T) {
	c := testCircuit(4, 0)
	cost := uint64(16) << c.NumQubits
	const weight = 3
	s, err := serve.New(serve.Config{TotalWorkers: weight})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	src := qasmOf(t, c)

	var during uint64
	failBatch := errors.New("batch failed")
	var fail bool
	s.SetBatchRunner(func(x *backend.Executable, opts noise.Options) (*noise.Result, error) {
		during = s.Cache().Stats().Bytes
		if fail {
			return nil, failBatch
		}
		return noise.Run(x, opts)
	})
	for _, fail = range []bool{false, true} {
		_, err := s.Run(serve.RunRequest{Qasm: src, Noise: "x:0.1", Trajectories: 8, Workers: weight})
		if fail != errors.Is(err, failBatch) {
			t.Fatalf("fail=%v: Run returned %v", fail, err)
		}
		if want := cost * (1 + weight*noise.StatesPerWorker); during != want {
			t.Errorf("fail=%v: %d bytes accounted during the batch, want the artifact and %d worker states (%d)",
				fail, during, weight*noise.StatesPerWorker, want)
		}
		if after := s.Cache().Stats().Bytes; after != cost {
			t.Errorf("fail=%v: %d bytes accounted after the batch, want the artifact's %d alone", fail, after, cost)
		}
	}
}
