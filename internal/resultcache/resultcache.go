// Package resultcache is the query-fingerprint → hits cache that sits
// in front of a search dispatcher.
//
// The cache key is the full search fingerprint — database checksum,
// effective TopK, and every query's residue content in order — so a
// database swap or a different hit cap invalidates for free, and two
// requests collide only when their answers are byte-identical by
// construction. Values are per-query hit lists; callers assemble a
// fresh Report around them, because QueryIDs and timing belong to the
// request, not to the cached answer. Entries are bounded by an LRU
// with both an entry budget and a byte budget, and every value is
// defensively copied on the way in and out, so no caller can corrupt
// a cached slice.
//
// Do is the whole protocol: Get, and on a miss run the search under the
// caller's own context and Put its answer. Concurrent identical misses
// each run their own search; an error or a partial answer is never
// stored, so the next request retries a real search.
package resultcache

import (
	"container/list"
	"context"
	"encoding/binary"
	"sync"
	"sync/atomic"

	"swdual/internal/master"
	"swdual/internal/seq"
)

// DefaultMaxEntries bounds a zero-configured cache's entry count.
const DefaultMaxEntries = 1024

// DefaultMaxBytes bounds a zero-configured cache's estimated memory.
const DefaultMaxBytes = 64 << 20

// Config bounds a Cache. The zero value selects both defaults.
type Config struct {
	// MaxEntries caps cached fingerprints (0 selects
	// DefaultMaxEntries).
	MaxEntries int
	// MaxBytes caps the estimated bytes held across keys and hits
	// (0 selects DefaultMaxBytes). A single answer larger than the
	// budget is served but never stored.
	MaxBytes int64
}

// Stats is a point-in-time snapshot of a Cache's counters.
type Stats struct {
	Entries   int
	Bytes     int64
	Hits      uint64
	Misses    uint64
	Evictions uint64
}

// entry is one cached fingerprint → hits mapping on the LRU list.
type entry struct {
	key  string
	hits [][]master.Hit
	size int64
}

// Cache is a bounded LRU over search fingerprints. Safe for concurrent
// use; Get and Put copy hit slices at the boundary in both directions.
type Cache struct {
	maxEntries int
	maxBytes   int64

	mu    sync.Mutex
	order *list.List // front = most recently used
	index map[string]*list.Element
	bytes int64

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

// New builds a cache with the given bounds (zero fields select the
// defaults).
func New(cfg Config) *Cache {
	if cfg.MaxEntries <= 0 {
		cfg.MaxEntries = DefaultMaxEntries
	}
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = DefaultMaxBytes
	}
	return &Cache{
		maxEntries: cfg.MaxEntries,
		maxBytes:   cfg.MaxBytes,
		order:      list.New(),
		index:      make(map[string]*list.Element),
	}
}

// Key fingerprints one search: database checksum, effective TopK, and
// each query's residue content, all length-prefixed so distinct query
// sets can never alias. The result is a byte-string key (not a hash),
// so a cache hit implies fingerprint equality, never a collision.
func Key(dbChecksum uint32, topK int, queries *seq.Set) string {
	n := 12
	for i := range queries.Seqs {
		n += 4 + len(queries.Seqs[i].Residues)
	}
	b := make([]byte, 0, n)
	b = binary.LittleEndian.AppendUint32(b, dbChecksum)
	b = binary.LittleEndian.AppendUint32(b, uint32(topK))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(queries.Seqs)))
	for i := range queries.Seqs {
		r := queries.Seqs[i].Residues
		b = binary.LittleEndian.AppendUint32(b, uint32(len(r)))
		b = append(b, r...)
	}
	return string(b)
}

// hitsSize estimates the resident cost of one cached value: slice
// headers plus per-hit struct size plus SeqID string bytes.
func hitsSize(key string, hits [][]master.Hit) int64 {
	size := int64(len(key)) + 24*int64(len(hits))
	for _, hs := range hits {
		for i := range hs {
			size += 40 + int64(len(hs[i].SeqID))
		}
	}
	return size
}

// copyHits deep-copies per-query hit lists. Hit itself has no interior
// pointers beyond the immutable SeqID string, so copying the slices is
// a full defensive copy.
func copyHits(hits [][]master.Hit) [][]master.Hit {
	out := make([][]master.Hit, len(hits))
	for i, hs := range hits {
		if hs == nil {
			continue
		}
		out[i] = make([]master.Hit, len(hs))
		copy(out[i], hs)
	}
	return out
}

// Get returns a defensive copy of the hits cached under key and marks
// the entry most recently used. The second result reports whether the
// key was present.
func (c *Cache) Get(key string) ([][]master.Hit, bool) {
	c.mu.Lock()
	el, ok := c.index[key]
	if !ok {
		c.mu.Unlock()
		c.misses.Add(1)
		return nil, false
	}
	c.order.MoveToFront(el)
	hits := el.Value.(*entry).hits
	c.mu.Unlock()
	c.hits.Add(1)
	// The cached slices are immutable once stored, so the copy can run
	// outside the lock.
	return copyHits(hits), true
}

// Put stores a defensive copy of hits under key and evicts from the
// cold end until both budgets hold again. An answer that alone exceeds
// the byte budget is not stored (storing it would evict everything for
// one entry that can never be joined by another).
func (c *Cache) Put(key string, hits [][]master.Hit) {
	size := hitsSize(key, hits)
	if size > c.maxBytes {
		return
	}
	stored := copyHits(hits)
	c.mu.Lock()
	if el, ok := c.index[key]; ok {
		// Replace in place (two concurrent misses on one key both
		// computed the same answer).
		e := el.Value.(*entry)
		c.bytes += size - e.size
		e.hits, e.size = stored, size
		c.order.MoveToFront(el)
	} else {
		c.index[key] = c.order.PushFront(&entry{key: key, hits: stored, size: size})
		c.bytes += size
	}
	var evicted uint64
	for c.order.Len() > c.maxEntries || c.bytes > c.maxBytes {
		back := c.order.Back()
		e := back.Value.(*entry)
		c.order.Remove(back)
		delete(c.index, e.key)
		c.bytes -= e.size
		evicted++
	}
	c.mu.Unlock()
	if evicted > 0 {
		c.evictions.Add(evicted)
	}
}

// Stats snapshots the cache's counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	entries, bytes := c.order.Len(), c.bytes
	c.mu.Unlock()
	return Stats{
		Entries:   entries,
		Bytes:     bytes,
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
	}
}

// Report assembles a fresh report around per-query hits: QueryIndex and
// QueryID come from the request's query set, and the hit slices are
// owned by the report (pass a copy; Cache.Get already returns one).
// Cells, timing and workers stay zero — a cached answer did no work,
// and Stats counters are where operators see that.
func Report(queries *seq.Set, hits [][]master.Hit) *master.Report {
	rep := &master.Report{Results: make([]master.QueryResult, len(queries.Seqs))}
	for i := range rep.Results {
		rep.Results[i].QueryIndex = i
		rep.Results[i].QueryID = queries.Seqs[i].ID
		if i < len(hits) {
			rep.Results[i].Hits = hits[i]
		}
	}
	return rep
}

// Do answers one search through the cache — the whole sequence a cached
// dispatcher runs in front of its real search. A dead ctx never gets an
// answer, warm cache or not: cancellation means "stop". A hit on key is
// answered from c without calling run. A miss runs the real search
// under the caller's own ctx and stores a full-coverage answer. An
// error is returned and never cached, so the next identical search
// runs again; a degraded answer (non-nil Coverage) is returned but
// never cached, so a later search is not answered from a partial one.
func Do(ctx context.Context, c *Cache, key string, queries *seq.Set,
	run func() (*master.Report, error)) (*master.Report, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if hits, ok := c.Get(key); ok {
		return Report(queries, hits), nil
	}
	rep, err := run()
	if err != nil || rep.Coverage != nil {
		return rep, err
	}
	hits := make([][]master.Hit, len(rep.Results))
	for i := range rep.Results {
		hits[i] = rep.Results[i].Hits
	}
	c.Put(key, hits)
	return rep, nil
}
