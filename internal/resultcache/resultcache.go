// Package resultcache is the query-fingerprint → hits cache that sits
// in front of a search dispatcher, plus the singleflight collapsing
// that keeps concurrent identical queries from each paying a full
// scheduling wave.
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
// Flight is the collapsing layer under the cache: the first caller to
// miss on a key becomes the leader and runs the real search; callers
// that miss on the same key while the leader is in flight become
// followers and wait for the leader's answer. A follower's context
// cancellation abandons only that follower — the leader keeps its own
// context — and a leader error is propagated to every follower but
// never cached, so the next request retries a real search.
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

// CopyHits deep-copies per-query hit lists. Hit itself has no interior
// pointers beyond the immutable SeqID string, so copying the slices is
// a full defensive copy.
func CopyHits(hits [][]master.Hit) [][]master.Hit {
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
	return CopyHits(hits), true
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
	stored := CopyHits(hits)
	c.mu.Lock()
	if el, ok := c.index[key]; ok {
		// Replace in place (two leaders can race here only across a
		// flight boundary; both computed the same answer).
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
func Report(policy master.Policy, queries *seq.Set, hits [][]master.Hit) *master.Report {
	rep := &master.Report{
		Policy:  policy,
		Results: make([]master.QueryResult, len(queries.Seqs)),
	}
	for i := range rep.Results {
		rep.Results[i].QueryIndex = i
		rep.Results[i].QueryID = queries.Seqs[i].ID
		if i < len(hits) {
			rep.Results[i].Hits = hits[i]
		}
	}
	return rep
}

// Do answers one search through the cache and the flight — the whole
// sequence a cached dispatcher runs in front of its real search. A hit
// on key is answered from c without calling run. On a miss the first
// caller becomes the leader: it runs the real search, stores a
// full-coverage answer in c and publishes it to the flight. Callers
// that miss while the leader is in flight bump collapsed (before
// blocking, so tests and operators can see them parked) and wait for
// its answer; a follower's ctx abandons only that follower. A leader
// error reaches every follower and is never cached. A degraded answer
// (non-nil Coverage) crosses the flight, coverage and all, so collapsed
// callers get the same labeled partial answer — but never enters the
// cache, so a later search is not answered from a partial one. A dead
// ctx never gets an answer, warm cache or not: cancellation means
// "stop".
func Do(ctx context.Context, c *Cache, f *Flight, collapsed *atomic.Uint64, key string,
	policy master.Policy, queries *seq.Set, run func() (*master.Report, error)) (*master.Report, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if hits, ok := c.Get(key); ok {
		return Report(policy, queries, hits), nil
	}
	call, leader := f.Join(key)
	if !leader {
		collapsed.Add(1)
		hits, err := call.Wait(ctx)
		if err != nil {
			return nil, err
		}
		rep := Report(policy, queries, CopyHits(hits))
		if cov := call.Coverage(); cov != nil {
			rep.Coverage = cov.Clone()
		}
		return rep, nil
	}
	rep, err := run()
	if err != nil {
		f.Finish(key, call, nil, err)
		return nil, err
	}
	hits := make([][]master.Hit, len(rep.Results))
	for i := range rep.Results {
		hits[i] = rep.Results[i].Hits
	}
	if rep.Coverage != nil {
		f.FinishPartial(key, call, CopyHits(hits), rep.Coverage.Clone())
		return rep, nil
	}
	c.Put(key, hits)
	f.Finish(key, call, CopyHits(hits), nil)
	return rep, nil
}

// Flight collapses concurrent identical searches: the first Join on a
// key is the leader, later Joins before Finish are followers.
type Flight struct {
	mu    sync.Mutex
	calls map[string]*Call
}

// NewFlight builds an empty flight group.
func NewFlight() *Flight {
	return &Flight{calls: make(map[string]*Call)}
}

// Call is one in-flight search a leader runs and followers wait on.
type Call struct {
	done     chan struct{}
	hits     [][]master.Hit   // immutable once done is closed
	coverage *master.Coverage // non-nil only for degraded answers
	err      error
}

// Join returns the in-flight call for key, creating it when absent.
// leader reports whether the caller created the call and therefore must
// run the search and Finish it.
func (f *Flight) Join(key string) (c *Call, leader bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.calls[key]; ok {
		return c, false
	}
	c = &Call{done: make(chan struct{})}
	f.calls[key] = c
	return c, true
}

// Finish publishes the leader's outcome to every follower and retires
// the call, so the next miss on key starts a fresh search (errors are
// therefore never sticky). hits must be a copy the followers may share;
// they are treated as immutable from here on.
func (f *Flight) Finish(key string, c *Call, hits [][]master.Hit, err error) {
	f.finish(key, c, hits, nil, err)
}

// FinishPartial publishes a degraded leader's outcome: followers get
// the surviving hits together with the coverage describing what was
// skipped, so a collapsed answer is labeled partial exactly like the
// leader's. Degraded answers never reach the Cache — that is the
// caller's contract; this method only carries the metadata across the
// flight.
func (f *Flight) FinishPartial(key string, c *Call, hits [][]master.Hit, coverage *master.Coverage) {
	f.finish(key, c, hits, coverage, nil)
}

func (f *Flight) finish(key string, c *Call, hits [][]master.Hit, coverage *master.Coverage, err error) {
	f.mu.Lock()
	if cur, ok := f.calls[key]; ok && cur == c {
		delete(f.calls, key)
	}
	f.mu.Unlock()
	c.hits, c.coverage, c.err = hits, coverage, err
	close(c.done)
}

// Coverage reports the degraded-answer metadata the leader published
// (nil for a full-coverage answer). Valid only after Wait returned
// without error; the value is shared and must be Cloned before
// attaching to a caller-owned Report.
func (c *Call) Coverage() *master.Coverage {
	select {
	case <-c.done:
		return c.coverage
	default:
		return nil
	}
}

// Wait blocks until the leader finished or ctx is done. The returned
// hits are shared and immutable — copy before mutating (Report wants an
// owned copy, so pass them through CopyHits).
func (c *Call) Wait(ctx context.Context) ([][]master.Hit, error) {
	select {
	case <-c.done:
		return c.hits, c.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}
