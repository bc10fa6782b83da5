package serve_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/circuit"
	"repro/internal/noise"
	"repro/internal/par"
	"repro/internal/recognize"
	"repro/internal/serve"
)

// TestCompilePanicAnswers500 makes the pass pipeline panic — through
// par.For, so the value is a *par.Panic — under two concurrent
// /v1/compile requests for one key. Both must answer 500 within a
// deadline, not hang on the flight the panic left; afterwards nothing is
// pinned, no compile is in flight, and the key compiles once the pipeline
// is sound again.
func TestCompilePanicAnswers500(t *testing.T) {
	s, err := serve.New(serve.Config{Target: backend.Target{Emulate: recognize.Auto}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var calls atomic.Int32
	s.SetCompiler(func(*circuit.Circuit, backend.Target) (*backend.Executable, error) {
		calls.Add(1)
		time.Sleep(20 * time.Millisecond) // let the second request find the flight
		par.For(2, func(int) { panic("compile exploded") })
		return nil, errors.New("unreachable")
	})
	srv := httptest.NewServer(s.Handler())
	defer func() {
		// Close waits for every handler: one blocked on a flight the
		// panic left open would hang the test instead of failing it.
		if !t.Failed() {
			srv.Close()
		}
	}()
	client := &http.Client{Timeout: 10 * time.Second}
	body, err := json.Marshal(map[string]string{"qasm": qasmOf(t, testCircuit(6, 0))})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	codes := make([]int, 2)
	msgs := make([]string, 2)
	for i := range codes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := client.Post(srv.URL+"/v1/compile", "application/json", bytes.NewReader(body))
			if err != nil {
				msgs[i] = err.Error()
				return
			}
			defer resp.Body.Close()
			var e struct{ Error string }
			json.NewDecoder(resp.Body).Decode(&e)
			codes[i], msgs[i] = resp.StatusCode, e.Error
		}()
	}
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusInternalServerError || !strings.Contains(msgs[i], "compile exploded") {
			t.Errorf("request %d: status %d (%q), want 500 naming the panic", i, code, msgs[i])
		}
	}
	if calls.Load() == 0 {
		t.Fatal("the panicking compiler never ran")
	}
	if st := s.Stats(); st.Cache.PinnedBytes != 0 || st.Cache.Pinned != 0 || s.InFlight() != 0 {
		t.Errorf("after the panics: %d pinned bytes in %d entries, %d compiles in flight; want none",
			st.Cache.PinnedBytes, st.Cache.Pinned, s.InFlight())
	}

	s.SetCompiler(backend.Compile)
	resp, err := client.Post(srv.URL+"/v1/compile", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("the key after the panics: status %d, want 200", resp.StatusCode)
	}
}

// TestRunPanicIsTypedError makes a trajectory batch panic inside
// Service.Run: the caller gets a *serve.PanicError (a 500 over HTTP), and
// the batch's session reservation, the semaphore and the artifact pin are
// all returned.
func TestRunPanicIsTypedError(t *testing.T) {
	s, err := serve.New(serve.Config{Target: backend.Target{Emulate: recognize.Auto}, TotalWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.SetBatchRunner(func(*backend.Executable, noise.Options) (*noise.Result, error) {
		panic("batch exploded")
	})
	src := qasmOf(t, testCircuit(6, 0))
	var resident uint64
	for i := 0; i < 3; i++ { // a leaked semaphore weight would block the next run
		_, err := s.Run(serve.RunRequest{Qasm: src, Noise: "depolarizing:0.1", Trajectories: 4, Workers: 2})
		var pe *serve.PanicError
		if !errors.As(err, &pe) || !strings.Contains(err.Error(), "batch exploded") {
			t.Fatalf("run %d: err = %v, want a *serve.PanicError", i, err)
		}
		st := s.Stats().Cache
		if i == 0 {
			resident = st.Bytes
		}
		if st.PinnedBytes != 0 || st.Pinned != 0 || st.Bytes != resident {
			t.Errorf("after run %d: %d pinned bytes in %d entries, %d bytes accounted; want none pinned and the artifact's %d",
				i, st.PinnedBytes, st.Pinned, st.Bytes, resident)
		}
	}

	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	code := postJSON(t, srv.URL+"/v1/run",
		serve.RunRequest{Qasm: src, Noise: "depolarizing:0.1", Trajectories: 4}, nil)
	if code != http.StatusInternalServerError {
		t.Errorf("/v1/run with a panicking batch: status %d, want 500", code)
	}
}
