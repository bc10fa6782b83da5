package serve_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/recognize"
	"repro/internal/serve"
)

// postJSON posts a JSON body and decodes the JSON reply into out.
func postJSON(t *testing.T, url string, body any, out any) int {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s reply: %v", url, err)
		}
	}
	return resp.StatusCode
}

// TestHTTPEndpoints drives the full API over a real listener: compile,
// run by qasm, run by key, stats and health.
func TestHTTPEndpoints(t *testing.T) {
	s, err := serve.New(serve.Config{Target: backend.Target{Emulate: recognize.Auto}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	src := qasmOf(t, testCircuit(8, 0))

	var cr serve.CompileResult
	if code := postJSON(t, srv.URL+"/v1/compile", map[string]string{"qasm": src}, &cr); code != http.StatusOK {
		t.Fatalf("compile returned %d", code)
	}
	if cr.Key == "" || cr.NumQubits != 8 || cr.EmulatedGates == 0 {
		t.Fatalf("compile result %+v", cr)
	}

	var r1 serve.RunResult
	if code := postJSON(t, srv.URL+"/v1/run",
		serve.RunRequest{Qasm: src, Shots: 10, Seed: 5}, &r1); code != http.StatusOK {
		t.Fatalf("run by qasm returned %d", code)
	}
	if len(r1.Samples) != 10 || r1.Key != cr.Key || !r1.Cached {
		t.Fatalf("run result %+v", r1)
	}

	var r2 serve.RunResult
	if code := postJSON(t, srv.URL+"/v1/run",
		serve.RunRequest{Key: cr.Key, Shots: 10, Seed: 5}, &r2); code != http.StatusOK {
		t.Fatalf("run by key returned %d", code)
	}
	for i := range r1.Samples {
		if r2.Samples[i] != r1.Samples[i] {
			t.Fatalf("key-addressed stream diverges at draw %d", i)
		}
	}

	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st serve.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Compiles != 1 || st.Requests != 2 || st.Shots != 20 {
		t.Fatalf("stats %+v", st)
	}

	health, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health.Body.Close()
	if health.StatusCode != http.StatusOK {
		t.Fatalf("healthz returned %d", health.StatusCode)
	}
}

// TestHTTPErrorMapping: client mistakes come back as 4xx with a JSON
// error body, never 500 and never a dropped connection.
func TestHTTPErrorMapping(t *testing.T) {
	s, err := serve.New(serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	cases := []struct {
		name string
		url  string
		body any
		want int
	}{
		{"bad qasm", "/v1/run", serve.RunRequest{Qasm: "qubits 2\nbogus 0\n"}, http.StatusBadRequest},
		{"empty run", "/v1/run", serve.RunRequest{}, http.StatusBadRequest},
		{"unknown key", "/v1/run", serve.RunRequest{Key: "missing"}, http.StatusNotFound},
		{"empty compile", "/v1/compile", map[string]string{}, http.StatusBadRequest},
		{"unknown field", "/v1/compile", map[string]string{"qsam": "typo"}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		var e struct {
			Error string `json:"error"`
		}
		if code := postJSON(t, srv.URL+tc.url, tc.body, &e); code != tc.want {
			t.Fatalf("%s: status %d, want %d", tc.name, code, tc.want)
		}
		if e.Error == "" {
			t.Fatalf("%s: empty error body", tc.name)
		}
	}

	// Method mismatches 405, unknown paths 404.
	resp, err := http.Get(srv.URL + "/v1/run")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/run returned %d", resp.StatusCode)
	}
}

// TestHTTPRefusesWideRegister: a circuit whose state outgrows the cache
// budget (16·2^40 bytes against the default 2 GiB) is refused before it is
// fingerprinted or compiled: /v1/compile and /v1/run answer 4xx with a
// JSON error naming the budget, nothing is compiled and nothing is left
// pinned.
func TestHTTPRefusesWideRegister(t *testing.T) {
	s, err := serve.New(serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	body := map[string]string{"qasm": "qubits 40\nh 0\ncnot 0 39\n"}
	for _, path := range []string{"/v1/compile", "/v1/run"} {
		var e struct {
			Error string `json:"error"`
		}
		code := postJSON(t, srv.URL+path, body, &e)
		if code < 400 || code >= 500 || !strings.Contains(e.Error, serve.ErrTooLarge.Error()) {
			t.Fatalf("%s: status %d, error %q; want a 4xx naming the cache budget", path, code, e.Error)
		}
	}
	if n := s.Compiles(); n != 0 {
		t.Fatalf("refused circuits ran the pass pipeline %d times", n)
	}
	if st := s.Stats().Cache; st.Pinned != 0 || st.PinnedBytes != 0 {
		t.Fatalf("refused circuits left %d artifacts (%d B) pinned", st.Pinned, st.PinnedBytes)
	}
}

// TestHTTPCompileOverflowingRegion: a region argument that wraps an int in
// the width arithmetic is a skipped annotation, not a panic. On the auto
// target both compiles of it answer 200 within the client's deadline and
// the second is a cache hit; a panicking compile drops the first
// connection and leaves its single-flight entry open, so the second hangs.
func TestHTTPCompileOverflowingRegion(t *testing.T) {
	s, err := serve.New(serve.Config{Target: backend.Target{Auto: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	body, err := json.Marshal(map[string]string{
		"qasm": "qubits 3\nregion add 9223372036854775808 0\nx 0\nx 1\nendregion\nh 2\n",
	})
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Timeout: 30 * time.Second}
	for i, wantCached := range []bool{false, true} {
		resp, err := client.Post(srv.URL+"/v1/compile", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("compile %d: %v", i, err)
		}
		var cr serve.CompileResult
		err = json.NewDecoder(resp.Body).Decode(&cr)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || err != nil {
			t.Fatalf("compile %d: status %d, decoding %v", i, resp.StatusCode, err)
		}
		if cr.Cached != wantCached || cr.EmulatedGates != 0 || cr.Key == "" {
			t.Fatalf("compile %d: %+v, want cached=%v and nothing emulated", i, cr, wantCached)
		}
	}
}
