package serve

// Cache exposes the artifact cache to the tests.
func (s *Service) Cache() *Cache { return s.cache }

// Compiles returns how many times the pass pipeline actually ran — the
// counter the cache-hit tests pin at 1 across repeated requests.
func (s *Service) Compiles() uint64 { return s.compiles.Load() }
