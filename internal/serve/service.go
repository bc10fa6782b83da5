package serve

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backend"
	"repro/internal/noise"
	"repro/internal/qasm"
	"repro/internal/rng"
)

// Config shapes a Service.
type Config struct {
	// Target is the execution shape every circuit compiles for (kind,
	// fusion width, node count, emulation mode); NumQubits is taken from
	// each circuit. The zero value is the single-node fused simulator.
	Target backend.Target
	// CacheBytes is the session-memory budget of the artifact cache
	// (CostOf accounting); 0 defaults to 2 GiB (a 27-qubit state).
	CacheBytes uint64
	// PersistDir, when non-empty, enables on-disk artifact persistence
	// and warm starts.
	PersistDir string
	// TotalWorkers caps the summed workers weight of concurrently
	// executing requests; 0 defaults to GOMAXPROCS.
	TotalWorkers int
	// MaxShots bounds one request's sample draw; 0 defaults to 1<<20.
	MaxShots int
}

// DefaultCacheBytes is the cache budget when Config leaves it zero.
const DefaultCacheBytes = 1 << 31

// defaultMaxShots bounds a single request's draw when unconfigured.
const defaultMaxShots = 1 << 20

// Service is the compile-once/run-many engine behind the HTTP daemon:
// a fingerprint-keyed artifact cache, one prepared session per cached
// circuit, a single-flight compile path and a weighted admission
// semaphore. Safe for concurrent use.
type Service struct {
	cfg   Config
	cache *Cache
	sem   *wsem

	mu       sync.Mutex
	inflight map[string]*flight // guarded by mu

	compiles atomic.Uint64 // pass-pipeline invocations (cache hits skip it)
	requests atomic.Uint64
	shots    atomic.Uint64
}

// flight is one in-progress compile other requests for the same key
// wait on instead of compiling again.
type flight struct {
	done chan struct{}
	err  error
}

// New builds a service and, when persistence is configured, warm-starts
// the cache from disk.
func New(cfg Config) (*Service, error) {
	if cfg.CacheBytes == 0 {
		cfg.CacheBytes = DefaultCacheBytes
	}
	if cfg.TotalWorkers <= 0 {
		cfg.TotalWorkers = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxShots <= 0 {
		cfg.MaxShots = defaultMaxShots
	}
	s := &Service{
		cfg:      cfg,
		cache:    NewCache(cfg.CacheBytes, cfg.PersistDir),
		sem:      newWsem(cfg.TotalWorkers),
		inflight: make(map[string]*flight),
	}
	if _, err := s.cache.WarmStart(s.admitDecoded); err != nil {
		return nil, err
	}
	return s, nil
}

// admitDecoded vets a decoded artifact before it enters the cache: the
// structural verifier plus the embedded-key check (crc32 alone cannot
// catch a renamed file or a semantically corrupt body that re-checksums
// cleanly), then the worker clamp — a .qexe dictates its circuit and
// shape, never this service's concurrency, so whatever worker budget it
// was compiled under is replaced by the service's own before the target
// reaches backend.New.
func (s *Service) admitDecoded(key string, x *backend.Executable) error {
	if err := backend.VerifyExecutableKey(x, key); err != nil {
		return err
	}
	x.Target.Workers = s.cfg.Target.Workers
	return nil
}

// CompileResult reports one compile (or cache hit) to the client.
type CompileResult struct {
	Key           string `json:"key"`
	Cached        bool   `json:"cached"`
	NumQubits     uint   `json:"num_qubits"`
	NumGates      int    `json:"num_gates"`
	EmulatedGates int    `json:"emulated_gates"`
	FusedBlocks   int    `json:"fused_blocks"`
	PlannedRounds int    `json:"planned_rounds"`
}

// Compile parses qasm source, compiles it once (or hits the cache) and
// reports the artifact key run requests can use.
func (s *Service) Compile(qasmSrc string) (*CompileResult, error) {
	art, compiled, err := s.resolve(qasmSrc, "")
	if err != nil {
		return nil, err
	}
	defer s.cache.Release(art)
	x := art.Executable()
	return &CompileResult{
		Key: art.Key(), Cached: !compiled,
		NumQubits: x.NumQubits, NumGates: x.NumGates,
		EmulatedGates: x.EmulatedGates, FusedBlocks: x.FusedBlocks,
		PlannedRounds: x.PlannedRounds,
	}, nil
}

// RunRequest asks for shot samples from a circuit, addressed by qasm
// source or by a previously returned key.
type RunRequest struct {
	Qasm string `json:"qasm,omitempty"`
	Key  string `json:"key,omitempty"`
	// Shots is the number of samples to draw (default 1). Mutually
	// exclusive with Trajectories.
	Shots int `json:"shots,omitempty"`
	// Seed fixes the sample stream: one seed always yields the same
	// draws for a circuit, independent of request interleaving. For
	// trajectory batches it also fixes every noise realisation.
	Seed uint64 `json:"seed,omitempty"`
	// Workers is the share of the service's worker budget this request
	// occupies while executing (default 1, clamped to the budget). A
	// trajectory batch stripes its trajectories over this many parallel
	// sessions.
	Workers int `json:"workers,omitempty"`
	// Trajectories, when positive, switches the request to stochastic-
	// trajectory noisy simulation: the cached artifact is replayed once
	// per trajectory with sampled Kraus jumps, and Samples carries one
	// outcome per trajectory. The compile still happens once per
	// artifact, however many trajectories are requested.
	Trajectories int `json:"trajectories,omitempty"`
	// Noise attaches a global after-each-gate channel, "kind:p" (e.g.
	// "depolarizing:0.001"), to a qasm-addressed request before
	// compilation; the channel becomes part of the cache key. Requires
	// Trajectories, and cannot combine with Key — a key names an
	// already-compiled artifact, noise model included.
	Noise string `json:"noise,omitempty"`
}

// RunResult carries the drawn samples.
type RunResult struct {
	Key           string   `json:"key"`
	Cached        bool     `json:"cached"`
	NumQubits     uint     `json:"num_qubits"`
	EmulatedGates int      `json:"emulated_gates"`
	Samples       []uint64 `json:"samples"`
	WallNs        int64    `json:"wall_ns"`
	// Trajectory batches only: the batch size, the plan's insertion
	// points per trajectory, and the total sampled jumps.
	Trajectories int    `json:"trajectories,omitempty"`
	NoisePoints  int    `json:"noise_points,omitempty"`
	Jumps        uint64 `json:"jumps,omitempty"`
}

// ErrUnknownKey rejects run requests naming a key the cache does not
// hold (expired or never compiled) without qasm source to fall back on.
var ErrUnknownKey = errors.New("serve: unknown artifact key")

// badRequestError marks client mistakes (unparseable qasm, malformed
// requests) so the HTTP layer can map them to 4xx statuses.
type badRequestError struct{ err error }

func (e badRequestError) Error() string { return e.err.Error() }
func (e badRequestError) Unwrap() error { return e.err }

func badRequest(err error) error { return badRequestError{err} }

// IsBadRequest reports whether err is the client's fault.
func IsBadRequest(err error) bool {
	var b badRequestError
	return errors.As(err, &b)
}

// verifyRejectedError marks an artifact the structural verifier refused:
// syntactically decodable (the crc32 checked out) but semantically
// unsound. The HTTP layer maps it to 422 Unprocessable Entity, distinct
// from the 400 of a body that is not an artifact at all.
type verifyRejectedError struct{ err error }

func (e verifyRejectedError) Error() string { return e.err.Error() }
func (e verifyRejectedError) Unwrap() error { return e.err }

func verifyRejected(err error) error { return verifyRejectedError{err} }

// IsVerifyRejected reports whether err is a structural-verifier
// rejection of an uploaded artifact.
func IsVerifyRejected(err error) bool {
	var v verifyRejectedError
	return errors.As(err, &v)
}

// ArtifactResult reports one artifact upload.
type ArtifactResult struct {
	Key       string `json:"key"`
	Cached    bool   `json:"cached"`
	NumQubits uint   `json:"num_qubits"`
	NumGates  int    `json:"num_gates"`
}

// AdmitArtifact decodes an encoded executable (a .qexe body), runs the
// structural verifier over it, and admits it into the cache under its
// embedded source key — the upload path of a compile-once/run-anywhere
// fleet: compile on a build host, POST the artifact, run by key. A body
// that does not decode is a bad request (400); one that decodes but
// fails verification is a typed verifier rejection (422). Both checks
// complete before any session memory is pinned — a rejected artifact
// never reaches backend.New, the cache table, or the persistence
// directory.
func (s *Service) AdmitArtifact(data []byte) (*ArtifactResult, error) {
	x, err := backend.Decode(data)
	if err != nil {
		return nil, badRequest(err)
	}
	if err := backend.VerifyExecutable(x); err != nil {
		return nil, verifyRejected(err)
	}
	key := x.SourceKey
	x.Target.Workers = s.cfg.Target.Workers
	if a, ok := s.cache.Get(key); ok {
		defer s.cache.Release(a)
		resident := a.Executable()
		return &ArtifactResult{Key: key, Cached: true,
			NumQubits: resident.NumQubits, NumGates: resident.NumGates}, nil
	}
	a, err := s.cache.Put(key, x)
	if err != nil {
		return nil, badRequest(err) // ErrTooLarge/ErrNoRoom: cannot host it
	}
	defer s.cache.Release(a)
	return &ArtifactResult{Key: key, Cached: false,
		NumQubits: x.NumQubits, NumGates: x.NumGates}, nil
}

// Run serves one shot request: resolve the artifact (compiling only on
// a cache miss), take the request's share of the worker budget, ensure
// the session has executed the circuit, and draw the samples. Requests
// with Trajectories set run the stochastic-trajectory path instead:
// the same cached artifact is replayed once per trajectory with sampled
// Kraus jumps, so an N-trajectory batch still compiles exactly once.
func (s *Service) Run(req RunRequest) (*RunResult, error) {
	s.requests.Add(1)
	start := time.Now()
	batch := req.Trajectories > 0
	if batch && req.Shots > 0 {
		return nil, badRequest(errors.New("serve: shots and trajectories are mutually exclusive"))
	}
	if req.Noise != "" {
		if !batch {
			return nil, badRequest(errors.New("serve: a noise spec needs trajectories (ideal sampling ignores noise)"))
		}
		if req.Key != "" {
			return nil, badRequest(errors.New("serve: a noise spec needs qasm addressing — a key names an already-compiled artifact, noise model included"))
		}
	}
	shots := req.Shots
	if batch {
		shots = req.Trajectories
	}
	if shots <= 0 {
		shots = 1
	}
	if shots > s.cfg.MaxShots {
		return nil, badRequest(fmt.Errorf("serve: %d shots exceeds the per-request limit %d", shots, s.cfg.MaxShots))
	}

	var art *Artifact
	var compiled bool
	switch {
	case req.Key != "":
		a, ok := s.cache.Get(req.Key)
		if !ok {
			return nil, ErrUnknownKey
		}
		art = a
	case req.Qasm != "":
		a, c, err := s.resolve(req.Qasm, req.Noise)
		if err != nil {
			return nil, err
		}
		art, compiled = a, c
	default:
		return nil, badRequest(errors.New("serve: run request needs qasm or key"))
	}
	defer s.cache.Release(art)

	weight := s.sem.acquire(req.Workers)
	defer s.sem.release(weight)

	x := art.Executable()
	if batch {
		// The batch's trajectory workers each pin a fresh session state
		// beyond the artifact's own; account them against the cache's
		// session-memory budget for the duration.
		release, err := s.cache.ReserveSessions(art.Cost(), weight)
		if err != nil {
			return nil, badRequest(fmt.Errorf("serve: trajectory batch working set: %w", err))
		}
		defer release()
		tr, err := noise.Run(x, noise.Options{
			Trajectories: req.Trajectories, Seed: req.Seed, Workers: weight,
		})
		if err != nil {
			return nil, err
		}
		s.shots.Add(uint64(len(tr.Outcomes)))
		return &RunResult{
			Key: art.Key(), Cached: !compiled,
			NumQubits: x.NumQubits, EmulatedGates: x.EmulatedGates,
			Samples: tr.Outcomes, WallNs: time.Since(start).Nanoseconds(),
			Trajectories: len(tr.Outcomes), NoisePoints: tr.Points, Jumps: tr.Jumps,
		}, nil
	}

	samples, err := art.sample(shots, req.Seed)
	if err != nil {
		return nil, err
	}
	s.shots.Add(uint64(len(samples)))
	return &RunResult{
		Key: art.Key(), Cached: !compiled,
		NumQubits: x.NumQubits, EmulatedGates: x.EmulatedGates,
		Samples: samples, WallNs: time.Since(start).Nanoseconds(),
	}, nil
}

// sample ensures the session has executed the artifact, then draws
// shots from the held state. Sampling does not collapse the state, so
// one seed yields one stream regardless of interleaving; the session
// lock serialises access to the backend.
func (a *Artifact) sample(shots int, seed uint64) ([]uint64, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.prepared {
		b, err := backend.New(a.exec.Target)
		if err != nil {
			return nil, err
		}
		if _, err := b.Run(a.exec); err != nil {
			b.Close()
			return nil, err
		}
		a.b = b
		a.prepared = true
	}
	return a.b.SampleMany(shots, rng.New(seed)), nil
}

// resolve parses qasm, attaches the optional noise spec, fingerprints
// the result against the service target and returns the pinned artifact
// — from the cache when resident, else compiled exactly once across
// concurrent requests (single-flight). The noise spec lands on the
// circuit before fingerprinting, so "same qasm, different channel" is a
// different cache entry. compiled reports whether this call ran the
// pass pipeline.
func (s *Service) resolve(qasmSrc, noiseSpec string) (art *Artifact, compiled bool, err error) {
	c, err := qasm.ParseString(qasmSrc)
	if err != nil {
		return nil, false, badRequest(err)
	}
	if err := noise.Attach(c, noiseSpec); err != nil {
		return nil, false, badRequest(err)
	}
	t := s.cfg.Target
	t.NumQubits = c.NumQubits
	key, err := backend.Fingerprint(c, t)
	if err != nil {
		return nil, false, err
	}
	for {
		if a, ok := s.cache.Get(key); ok {
			return a, false, nil
		}
		s.mu.Lock()
		if f, ok := s.inflight[key]; ok {
			s.mu.Unlock()
			<-f.done
			if f.err != nil {
				return nil, false, f.err
			}
			continue // the owner admitted it; hit the cache this time
		}
		f := &flight{done: make(chan struct{})}
		s.inflight[key] = f
		s.mu.Unlock()

		x, cerr := backend.Compile(c, t)
		var a *Artifact
		if cerr == nil {
			s.compiles.Add(1)
			a, cerr = s.cache.Put(key, x)
			if errors.Is(cerr, ErrTooLarge) || errors.Is(cerr, ErrNoRoom) {
				// Serve the request from an uncached one-shot session
				// rather than thrashing the resident working set.
				a, cerr = Ephemeral(key, x), nil
			}
		}
		f.err = cerr
		s.mu.Lock()
		delete(s.inflight, key)
		s.mu.Unlock()
		close(f.done)
		if cerr != nil {
			return nil, false, cerr
		}
		return a, true, nil
	}
}

// Stats is the service-level counter snapshot.
type Stats struct {
	Cache    CacheStats `json:"cache"`
	Compiles uint64     `json:"compiles"`
	Requests uint64     `json:"requests"`
	Shots    uint64     `json:"shots"`
}

// Stats returns the current counters.
func (s *Service) Stats() Stats {
	return Stats{
		Cache:    s.cache.Stats(),
		Compiles: s.compiles.Load(),
		Requests: s.requests.Load(),
		Shots:    s.shots.Load(),
	}
}

// Close retires the cache; sessions pinned by in-flight requests close
// as those requests finish.
func (s *Service) Close() error { return s.cache.Close() }

// wsem is a weighted semaphore: the summed weight of admitted holders
// never exceeds the capacity. Hand-rolled (no external deps) on a
// condition variable; fairness is best-effort, which is fine for
// bounding simulator concurrency.
type wsem struct {
	mu   sync.Mutex
	cond *sync.Cond
	cap  int
	used int // guarded by mu
}

func newWsem(capacity int) *wsem {
	s := &wsem{cap: capacity}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// acquire blocks until n units are free and returns the weight actually
// granted (n clamped to [1, cap]); pass it to release.
func (s *wsem) acquire(n int) int {
	if n < 1 {
		n = 1
	}
	if n > s.cap {
		n = s.cap
	}
	s.mu.Lock()
	for s.used+n > s.cap {
		s.cond.Wait()
	}
	s.used += n
	s.mu.Unlock()
	return n
}

func (s *wsem) release(n int) {
	s.mu.Lock()
	s.used -= n
	s.mu.Unlock()
	s.cond.Broadcast()
}
