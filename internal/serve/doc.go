// Package serve is the compile-once/run-many simulation service behind
// cmd/qemu-serve: an HTTP daemon that accepts qasm circuits, compiles
// each one exactly once through the backend pass pipeline
// (backend.Compile), and serves every later shot request from the cached
// compiled artifact and its prepared state.
//
// # Request model
//
// The daemon exposes a small JSON API:
//
//	POST /v1/compile  {"qasm": "..."}               -> compile (or hit the cache), report the key and plan summary
//	POST /v1/run      {"qasm"|"key", "shots", "seed", "workers"} -> draw samples from the compiled circuit
//	POST /v1/run      {..., "trajectories", "noise"} -> stochastic-trajectory noisy batch (see below)
//	GET  /v1/stats                                  -> cache and service counters
//	GET  /healthz                                   -> liveness
//
// A run request addresses its circuit either by qasm source or by the
// key an earlier compile returned. Keys are backend.Fingerprint values:
// a sha256 over the circuit and every target field that shapes the
// compiled artifact, so identical circuits always share one cache entry
// (the Workers run-time knob is excluded).
//
// Each key owns one session: a backend that executed the artifact once
// and now holds the final state. Shot requests sample that state —
// SampleMany does not collapse it — so a request drawing with seed s
// receives the same stream draw-for-draw no matter how requests
// interleave. Sessions serialise sampling under a per-session lock;
// across sessions, requests run concurrently under a weighted worker
// semaphore where each request's workers field is the share of the
// service budget it occupies.
//
// # Noisy trajectory batches
//
// A run request with "trajectories": N switches to stochastic-
// trajectory noisy simulation (internal/noise): the compiled artifact
// is replayed N times, each replay drawing a fresh seed-deterministic
// noise realisation from the artifact's compiled NoisePlan, and the
// response's samples field carries one measured outcome per trajectory
// (plus trajectories, noise_points and jumps counters). A trajectory
// runs the artifact's units whole — at the speed of the same circuit
// without noise — except the few a Pauli jump fires inside, which it
// replays gate by gate; the samples are the same either way, a function
// of (seed, trajectory, plan) alone, and the wire format does not say
// which happened. The circuit's noise comes either from qasm "noise"
// directives or from the request's "noise" field — a global
// after-each-gate channel spec like "depolarizing:0.001" attached before
// fingerprinting, so the channel is part of the cache key. The codec
// reads one layout: a daemon of another codec version that shares the
// cache directory refuses the version and recompiles. The whole batch is
// served from ONE
// cache entry and ONE compile, however large N is; the batch's parallel
// trajectory workers ("workers" field) each pin a transient session
// state, which is accounted against the same session-memory budget as
// the cache's resident artifacts for the duration of the batch.
//
// # Cache admission policy
//
// The cache is a size-aware LRU. The accounted cost of an artifact is
// the memory its open session pins — the 2^n-amplitude state vector,
// 16<<n bytes — not the (much smaller) encoded artifact. A circuit whose
// state exceeds the whole budget is refused as a bad request before it is
// fingerprinted or compiled, so no request opens a state larger than the
// budget; an artifact that fits evicts least-recently-used
// entries until it does. Entries pinned by in-flight requests are never
// evicted, so eviction can never free a session mid-run; if pinned
// entries leave no reclaimable room, the newcomer is rejected rather
// than blocking, and its request is served from an ephemeral, uncached
// session. Stats reports hits, misses, evictions, rejections and exact
// resident/pinned byte counters.
//
// # On-disk format and warm start
//
// With a persistence directory configured, every admitted artifact is
// written as <key>.qexe — the versioned binary container of
// internal/backend (see backend/codec.go for the layout and the
// version bump policy):
//
//	magic "QEXE" | version u16 | crc32 u32
//	target | source key | noise plan | gate count | skipped-region list
//	unit index (type + size per unit)
//	unit payloads (ops: region form and table; gate segments: raw gates)
//
// At startup the cache decodes every artifact in the directory back
// through normal admission, so a restarted daemon serves its first
// requests without recompiling. Stale, corrupt or version-skewed files
// are skipped (and removed) — a warm start that recompiles is always
// correct, one that trusts a bad artifact never is.
package serve
