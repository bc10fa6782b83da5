package serve

import (
	"container/list"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/backend"
)

// ErrTooLarge is the admission rejection: the artifact's working set
// exceeds the whole cache budget, so caching it could only thrash.
var ErrTooLarge = errors.New("serve: artifact exceeds the cache budget")

// ErrNoRoom reports that every resident entry is pinned by in-flight
// requests and the newcomer cannot be admitted without freeing one.
var ErrNoRoom = errors.New("serve: cache full of pinned artifacts")

// CostOf is the cache accounting cost of a compiled artifact: the
// memory its open session pins — the 2^n-amplitude state vector at 16
// bytes per complex128 — not the encoded artifact size, which is
// negligible next to it.
func CostOf(x *backend.Executable) uint64 { return stateCost(x.NumQubits) }

// stateCost is the size of an n-qubit state vector in bytes, saturating
// at math.MaxUint64.
func stateCost(n uint) uint64 {
	if n >= 60 {
		return math.MaxUint64
	}
	return 16 << n
}

// Artifact is one cached compiled circuit plus its session: a backend
// that executed the artifact once and now holds the final state for
// sampling. Artifacts are handed out pinned; callers must Release
// exactly once.
type Artifact struct {
	key  string
	exec *backend.Executable
	cost uint64

	// mu serialises the session: prepared flips once, after the backend
	// has run the executable.
	mu       sync.Mutex
	b        backend.Backend // guarded by mu
	prepared bool            // guarded by mu

	// Lifecycle, owned by the cache and mutated only under the owning
	// cache's mutex (not annotatable here — the lock lives on another
	// struct): refs counts in-flight pins; retired marks an artifact no
	// longer in the table (evicted, ephemeral or cache-closed) whose
	// session closes when the last pin drops.
	refs    int
	retired bool
}

// Key returns the artifact's fingerprint key.
func (a *Artifact) Key() string { return a.key }

// Executable returns the compiled artifact.
func (a *Artifact) Executable() *backend.Executable { return a.exec }

// Cost returns the accounted working-set size in bytes.
func (a *Artifact) Cost() uint64 { return a.cost }

// CacheStats is the counter snapshot Stats returns. Bytes and Entries
// count resident (admitted, un-evicted) artifacts; PinnedBytes and
// Pinned the subset held by in-flight requests.
type CacheStats struct {
	Hits, Misses, Evictions, Rejected uint64
	Entries, Pinned                   int
	Bytes, PinnedBytes, Budget        uint64
}

// Cache is the size-aware LRU of compiled artifacts. All methods are
// safe for concurrent use.
type Cache struct {
	mu     sync.Mutex
	budget uint64
	bytes  uint64
	table  map[string]*list.Element
	lru    *list.List // front = most recently used
	dir    string     // persistence directory, "" = memory only
	closed bool

	hits, misses, evictions, rejected uint64
}

// NewCache returns a cache admitting up to budget bytes of session
// working set. A non-empty dir enables persistence: admitted artifacts
// are written there as <key>.qexe and reloaded by WarmStart.
func NewCache(budget uint64, dir string) *Cache {
	return &Cache{budget: budget, table: make(map[string]*list.Element), lru: list.New(), dir: dir}
}

// Get returns the artifact cached under key, pinned, and refreshes its
// recency. The caller must Release it.
func (c *Cache) Get(key string) (*Artifact, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.table[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.lru.MoveToFront(el)
	a := el.Value.(*Artifact)
	a.refs++
	return a, true
}

// Put admits a compiled artifact under key, returning it pinned (the
// caller must Release). If the key is already resident the existing
// artifact is returned instead. Admission rejects artifacts costing
// more than the whole budget (ErrTooLarge) and artifacts that cannot
// fit after evicting every unpinned entry (ErrNoRoom); it never evicts
// a pinned entry.
func (c *Cache) Put(key string, x *backend.Executable) (*Artifact, error) {
	cost := CostOf(x)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.table[key]; ok {
		c.lru.MoveToFront(el)
		a := el.Value.(*Artifact)
		a.refs++
		return a, nil
	}
	if cost > c.budget || c.closed {
		c.rejected++
		return nil, ErrTooLarge
	}
	for c.bytes+cost > c.budget {
		if !c.evictOneLocked() {
			c.rejected++
			return nil, ErrNoRoom
		}
	}
	a := &Artifact{key: key, exec: x, cost: cost, refs: 1}
	c.table[key] = c.lru.PushFront(a)
	c.bytes += cost
	c.persist(a)
	return a, nil
}

// evictOneLocked drops the least-recently-used unpinned entry, closing
// its session (no pins means no request is mid-run on it). Reports
// false when every resident entry is pinned. Caller holds c.mu.
func (c *Cache) evictOneLocked() bool {
	for el := c.lru.Back(); el != nil; el = el.Prev() {
		a := el.Value.(*Artifact)
		if a.refs > 0 {
			continue
		}
		c.removeLocked(el, a)
		c.evictions++
		a.closeSession()
		return true
	}
	return false
}

// removeLocked unlinks an entry from the table, accounting and disk.
func (c *Cache) removeLocked(el *list.Element, a *Artifact) {
	c.lru.Remove(el)
	delete(c.table, a.key)
	c.bytes -= a.cost
	a.retired = true
	if c.dir != "" {
		os.Remove(filepath.Join(c.dir, a.key+artifactExt))
	}
}

// ReserveSessions accounts n transient sessions of cost bytes each
// against the cache budget — the extra trajectory-worker states a noisy
// batch pins while it runs — evicting idle entries to make room. It
// returns a release closure the caller must invoke when the batch
// finishes; ErrTooLarge when n sessions can never fit the budget,
// ErrNoRoom when every resident entry is pinned.
func (c *Cache) ReserveSessions(cost uint64, n int) (func(), error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || cost > c.budget || uint64(n) > c.budget/cost {
		return nil, ErrTooLarge
	}
	total := cost * uint64(n)
	for c.bytes+total > c.budget {
		if !c.evictOneLocked() {
			return nil, ErrNoRoom
		}
	}
	c.bytes += total
	return func() {
		c.mu.Lock()
		c.bytes -= total
		c.mu.Unlock()
	}, nil
}

// Release drops one pin. The last pin on a retired artifact closes its
// session.
func (c *Cache) Release(a *Artifact) {
	c.mu.Lock()
	a.refs--
	closeNow := a.retired && a.refs == 0
	c.mu.Unlock()
	if closeNow {
		a.closeSession()
	}
}

// Ephemeral wraps an executable the cache refused in an uncached,
// pre-pinned artifact: the request it serves releases it and the
// session closes.
func Ephemeral(key string, x *backend.Executable) *Artifact {
	return &Artifact{key: key, exec: x, cost: CostOf(x), refs: 1, retired: true}
}

// closeSession closes the artifact's backend, if one was prepared.
// backend.Close is idempotent and safe against stragglers by contract.
func (a *Artifact) closeSession() {
	a.mu.Lock()
	b := a.b
	a.mu.Unlock()
	if b != nil {
		b.Close()
	}
}

// Stats returns the counter snapshot, including exact pinned byte
// accounting.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := CacheStats{
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions, Rejected: c.rejected,
		Entries: c.lru.Len(), Bytes: c.bytes, Budget: c.budget,
	}
	for el := c.lru.Front(); el != nil; el = el.Next() {
		if a := el.Value.(*Artifact); a.refs > 0 {
			s.Pinned++
			s.PinnedBytes += a.cost
		}
	}
	return s
}

// Close retires every resident artifact. Sessions pinned by in-flight
// requests close when their last pin drops; idle ones close now.
func (c *Cache) Close() error {
	c.mu.Lock()
	c.closed = true
	var idle []*Artifact
	for el := c.lru.Front(); el != nil; el = c.lru.Front() {
		a := el.Value.(*Artifact)
		c.lru.Remove(el)
		delete(c.table, a.key)
		c.bytes -= a.cost
		a.retired = true
		if a.refs == 0 {
			idle = append(idle, a)
		}
	}
	c.mu.Unlock()
	for _, a := range idle {
		a.closeSession()
	}
	return nil
}

// artifactExt is the on-disk artifact suffix.
const artifactExt = ".qexe"

// persist writes an admitted artifact to the persistence directory
// (atomically: temp file + rename). Persistence failures are
// non-fatal — the cache simply will not warm-start that entry.
func (c *Cache) persist(a *Artifact) {
	if c.dir == "" {
		return
	}
	data, err := a.exec.Encode()
	if err != nil {
		return
	}
	tmp, err := os.CreateTemp(c.dir, "qexe-*")
	if err != nil {
		return
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(name)
		return
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return
	}
	if err := os.Rename(name, filepath.Join(c.dir, a.key+artifactExt)); err != nil {
		os.Remove(name)
	}
}

// WarmStart decodes every artifact in the persistence directory back
// through normal admission and reports how many were restored. Corrupt,
// truncated or version-skewed files are deleted — recompiling is always
// correct, trusting a bad artifact never is. A non-nil verify hook runs
// between decode and admission and may mutate the executable (the
// Service installs backend.VerifyExecutableKey plus its worker clamp
// there); artifacts it rejects are deleted too — the hook exists
// precisely because a semantically corrupt artifact can still carry a
// valid crc32. Oversized artifacts are left on disk but not admitted.
func (c *Cache) WarmStart(verify func(key string, x *backend.Executable) error) (int, error) {
	if c.dir == "" {
		return 0, nil
	}
	entries, err := os.ReadDir(c.dir)
	if err != nil {
		return 0, fmt.Errorf("serve: warm start: %w", err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), artifactExt) {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	loaded := 0
	for _, name := range names {
		path := filepath.Join(c.dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		x, err := backend.Decode(data)
		if err != nil {
			os.Remove(path)
			continue
		}
		key := strings.TrimSuffix(name, artifactExt)
		if verify != nil {
			if err := verify(key, x); err != nil {
				os.Remove(path)
				continue
			}
		}
		a, err := c.Put(key, x)
		if err != nil {
			continue
		}
		c.Release(a)
		loaded++
	}
	return loaded, nil
}
