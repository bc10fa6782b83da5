package serve_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/backend"
	"repro/internal/recognize"
	"repro/internal/serve"
)

// FuzzRunRequest sends arbitrary JSON bodies to POST /v1/run and POST
// /v1/compile through Service.Handler, on the daemon's default auto target
// and on two cluster nodes. Every body is answered — a 2xx with a JSON
// body, or a 4xx or 500 whose JSON body names the error — and leaves
// nothing pinned in the cache. route picks the endpoint (bit 0) and the
// service (bit 1). Both services' 1 MiB budget refuses a register wider
// than 16 qubits before compiling it, so no body allocates a larger state.
func FuzzRunRequest(f *testing.F) {
	for _, seed := range []struct {
		route uint8
		body  string
	}{
		{0, `{"qasm":"qubits 3\nh 0\ncnot 0 1\n","shots":4,"seed":7}`},
		{2, `{"qasm":"qubits 4\nh 0\ncnot 0 3\nh 3\n","shots":16,"seed":1}`},
		{0, `{"qasm":"qubits 3\nh 0\ncnot 0 1\n","trajectories":3,"noise":"depolarizing:0.1","workers":2}`},
		{2, `{"qasm":"qubits 5\nh 4\ncnot 4 0\n","trajectories":4,"noise":"amplitude_damping:0.3"}`},
		{0, `{"key":"0000000000000000000000000000000000000000000000000000000000000000"}`},
		{0, `{"qasm":"qubits 2\nh 0\n","shots":5,"trajectories":2}`},
		{0, `{"qasm":"qubits 2\nh 0\n","noise":"depolarizing:0.1"}`},
		{0, `{"qasm":"qubits 1\nh 0\n","shots":1000000}`},
		{0, `{"shots":-1}`},
		{0, `{}`},
		{0, `{"qasm":"qubits 2\nfoo 0\n"}`},
		{0, `{"qasm":5}`},
		{0, `{"unknown":1}`},
		{0, `not json`},
		{1, `{"qasm":"qubits 3\nregion add 9223372036854775808 0\nx 0\nx 1\nendregion\nh 2\n"}`},
		{1, `{"qasm":"qubits 4\nh 0\ncnot 0 1\ncnot 1 2\ncnot 2 3\n"}`},
		{3, `{"qasm":"qubits 6\nh 0\nh 5\ncnot 0 5\n"}`},
		{1, `{"qasm":""}`},
		{1, `[`},
		{0, `{"qasm":"qubits 40\nh 0\ncnot 0 39\n"}`},
		{3, `{"qasm":"qubits 17\nh 16\n","trajectories":2,"noise":"depolarizing:0.1"}`},
	} {
		f.Add(seed.route, []byte(seed.body))
	}
	var services [2]*serve.Service
	for i, tgt := range []backend.Target{
		{Auto: true},
		{Kind: backend.Cluster, Nodes: 2, FuseWidth: 3, Emulate: recognize.Auto},
	} {
		s, err := serve.New(serve.Config{Target: tgt, CacheBytes: 1 << 20, TotalWorkers: 2, MaxShots: 64})
		if err != nil {
			f.Fatal(err)
		}
		f.Cleanup(func() { s.Close() })
		services[i] = s
	}
	f.Fuzz(func(t *testing.T, route uint8, body []byte) {
		s := services[route>>1&1]
		path := "/v1/run"
		if route&1 == 1 {
			path = "/v1/compile"
		}
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))

		code := rec.Code
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("%s answered %d with content type %q", path, code, ct)
		}
		switch {
		case code >= 200 && code < 300:
			if !json.Valid(rec.Body.Bytes()) {
				t.Fatalf("%s answered %d with a body that is not JSON: %q", path, code, rec.Body.String())
			}
		case code >= 400 && code < 500, code == http.StatusInternalServerError:
			var e struct{ Error string }
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Fatalf("%s answered %d without a JSON error (%v): %q", path, code, err, rec.Body.String())
			}
		default:
			t.Fatalf("%s answered %d", path, code)
		}
		if st := s.Stats().Cache; st.Pinned != 0 || st.PinnedBytes != 0 {
			t.Fatalf("%s left %d artifacts (%d B) pinned after answering %d", path, st.Pinned, st.PinnedBytes, code)
		}
	})
}
