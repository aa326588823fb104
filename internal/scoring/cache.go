package scoring

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// QueryProfiles lazily builds and shares every profile representation of
// one query against one matrix: the 8-bit striped profile and the
// 16-bit striped profile. A search wave constructs one QueryProfiles per
// query and hands it to whichever engine runs the task, so the striped
// and simulated-GPU backends read the same construction instead of each
// rebuilding its own (the inter-sequence backend needs none) — the
// profile/buffer reuse SWIPE and Farrar's striped implementation both
// identify as the real cost of database search once the inner loop is
// vectorized. All accessors are safe for concurrent use; each profile
// is built at most once.
type QueryProfiles struct {
	m     *Matrix
	query []byte

	once8  sync.Once
	p8     *StripedProfile8
	p8err  error
	once16 sync.Once
	p16    *StripedProfile16
}

// NewQueryProfiles prepares a (still empty) profile set for an encoded
// query. Construction of the individual profiles is deferred to first
// use, so a query that never overflows 8 bits never pays for the wider
// profiles.
func NewQueryProfiles(m *Matrix, query []byte) *QueryProfiles {
	return &QueryProfiles{m: m, query: query}
}

// Query returns the encoded query the profiles describe.
func (q *QueryProfiles) Query() []byte { return q.query }

// Matrix returns the substitution matrix the profiles were built from.
func (q *QueryProfiles) Matrix() *Matrix { return q.m }

// Striped8 returns the shared 8-bit striped profile, building it on
// first use. The error mirrors NewStripedProfile8 (matrix range too wide
// for 8-bit biasing) and is sticky.
func (q *QueryProfiles) Striped8() (*StripedProfile8, error) {
	q.once8.Do(func() { q.p8, q.p8err = NewStripedProfile8(q.m, q.query) })
	return q.p8, q.p8err
}

// Striped16 returns the shared 16-bit striped profile, building it on
// first use.
func (q *QueryProfiles) Striped16() *StripedProfile16 {
	q.once16.Do(func() { q.p16 = NewStripedProfile16(q.m, q.query) })
	return q.p16
}

// ProfileCache maps query residue content to its shared QueryProfiles,
// so a persistent search service that sees the same queries across many
// scheduling waves builds each profile once for the lifetime of the
// cache instead of once per wave. The cache is a bounded LRU: past max
// entries, the least recently used profile set is evicted, so queries
// that keep repeating — the ones whose profiles are worth holding —
// survive while one-off queries age out (correctness never depends on
// a hit, only steady-state allocation does). Safe for concurrent use.
//
// Hit/miss/eviction counters are atomics read by Stats, so observing
// the cache never extends the lock hold on the hot Get path.
type ProfileCache struct {
	m   *Matrix
	max int

	mu    sync.Mutex
	order *list.List // front = most recently used; values are *profileEntry
	index map[string]*list.Element

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

// profileEntry is one residue-content → profiles mapping on the LRU
// list.
type profileEntry struct {
	key      string
	profiles *QueryProfiles
}

// ProfileCacheStats is a point-in-time snapshot of a ProfileCache's
// occupancy and counters.
type ProfileCacheStats struct {
	Entries   int
	Hits      uint64
	Misses    uint64
	Evictions uint64
}

// DefaultProfileCacheSize bounds a zero-configured ProfileCache.
const DefaultProfileCacheSize = 256

// NewProfileCache builds a cache over one matrix. max <= 0 selects
// DefaultProfileCacheSize.
func NewProfileCache(m *Matrix, max int) *ProfileCache {
	if max <= 0 {
		max = DefaultProfileCacheSize
	}
	return &ProfileCache{m: m, max: max, order: list.New(), index: make(map[string]*list.Element, max)}
}

// Get returns the shared profile set for a query's residue content,
// creating (and caching) it on first sight. Two sequences with equal
// residues share one entry regardless of their IDs — profiles depend
// only on residues and matrix.
func (c *ProfileCache) Get(query []byte) *QueryProfiles {
	key := string(query)
	c.mu.Lock()
	if el, ok := c.index[key]; ok {
		c.order.MoveToFront(el)
		p := el.Value.(*profileEntry).profiles
		c.mu.Unlock()
		c.hits.Add(1)
		return p
	}
	// The entry must own its residue bytes: it outlives the request that
	// supplied query, and the lazy profiles may be built long after a
	// caller reused or mutated its buffer.
	p := NewQueryProfiles(c.m, []byte(key))
	c.index[key] = c.order.PushFront(&profileEntry{key: key, profiles: p})
	// Evicting after inserting (rather than before) keeps the insert a
	// single code path; the loop restores the bound immediately, so no
	// caller can ever observe Len() > max once Get returns.
	var evicted uint64
	for c.order.Len() > c.max {
		back := c.order.Back()
		c.order.Remove(back)
		delete(c.index, back.Value.(*profileEntry).key)
		evicted++
	}
	c.mu.Unlock()
	c.misses.Add(1)
	if evicted > 0 {
		c.evictions.Add(evicted)
	}
	return p
}

// Len reports the number of cached profile sets.
func (c *ProfileCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Stats snapshots the cache's occupancy and counters.
func (c *ProfileCache) Stats() ProfileCacheStats {
	c.mu.Lock()
	entries := c.order.Len()
	c.mu.Unlock()
	return ProfileCacheStats{
		Entries:   entries,
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
	}
}
