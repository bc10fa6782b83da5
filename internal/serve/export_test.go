package serve

import (
	"repro/internal/backend"
	"repro/internal/circuit"
	"repro/internal/noise"
)

// Cache exposes the artifact cache to the tests.
func (s *Service) Cache() *Cache { return s.cache }

// Compiles returns how many times the pass pipeline actually ran — the
// counter the cache-hit tests pin at 1 across repeated requests.
func (s *Service) Compiles() uint64 { return s.compiles.Load() }

// SetBatchRunner replaces the function trajectory requests run their batch
// with, so a test can read the service's accounting mid-batch or make the
// batch fail.
func (s *Service) SetBatchRunner(run func(*backend.Executable, noise.Options) (*noise.Result, error)) {
	s.runBatch = run
}

// SetCompiler replaces the pass pipeline cold requests run, so a test can
// make it panic.
func (s *Service) SetCompiler(compile func(*circuit.Circuit, backend.Target) (*backend.Executable, error)) {
	s.compile = compile
}

// InFlight returns how many compiles are in flight.
func (s *Service) InFlight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.inflight)
}
