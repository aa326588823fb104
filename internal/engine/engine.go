// Package engine runs the paper's master-slave search as a persistent
// service, the one search path in the module. A Searcher loads a
// database once — sequences, residue encoding, length statistics,
// checksum — and owns a long-lived master.Pool of workers;
// many goroutines may then call Search concurrently and share that
// preparation, the way the paper's long-lived master keeps its workers
// busy across task waves (§IV) and the way fine-grained parallel search
// engines amortize database setup across queries (Nguyen & Lavenier
// 2008).
//
// Concurrent requests are coalesced: a dispatcher goroutine collects the
// queries that are waiting into one wave, runs the configured scheduling
// policy (dual-approximation by default) over the combined task set,
// submits one ordered queue per worker kind to the pool, and routes each
// result back to its originating request.
//
// The dispatcher is work-conserving and keeps no view of the pool of its
// own: master.Pool owns the queues, the idle count and the measured
// rates. The gate opens as soon as the pool reports any worker idle —
// nothing running and nothing queued for it — not when all are: the
// dispatcher then coalesces whatever waits on the submit channel, builds
// the scheduling instance over the idle part of the platform (the pool's
// measured rates, with the CPU and GPU counts set to the idle workers of
// each kind), plans it, and submits each kind's tasks in planned start
// order to that kind's FIFO in the pool, from which whichever worker of
// the kind frees first pulls — the paper's list-scheduling step (§III),
// "next task to the least-loaded PE of the class", executed with real
// instead of estimated times. Waves therefore
// overlap: a one-query wave planned on one idle worker occupies that
// worker, and the next request runs beside it on another as soon as one
// frees instead of waiting for the whole wave. Requests that
// arrive while every worker is busy wait on the submit channel, where
// cancellation and Close still reach them, and form the next wave.
//
// A wave with fewer queries than idle CPU workers would leave some of
// them idle beside work it could share, the one case §III's premise
// rules out and §II.C answers by splitting a comparison. On a pool with
// no GPU-kind worker, a wave that arrives while every worker is idle,
// and whose chunk tasks can all start at once, runs each query as one
// task per chunk of the database: maxChunks (or the pool's worker count
// if smaller) contiguous ranges of balanced residues (seq.SplitRanges,
// the split the cluster cuts its shard ranges with), cut once at New.
// The chunk tasks are planned by the same policy as any wave, and each
// query's parts merge through master.MergeParts exactly as a cluster
// merges its ranges, so hits are byte-identical to one task over the
// whole database. Every other wave runs one task per query: a split
// costs CPU, which a partly busy pool spends better on its next request.
//
// Every scheduling decision still sees an idle platform, just not always
// the whole one. With every worker idle the instance is the paper's §III
// model and the dual approximation's makespan bound holds for the wave;
// a wave planned while some workers are busy is bounded on the idle
// sub-platform only, and not at all against the whole platform — the
// busy workers join in from the kind's FIFO when they free, which the
// plan did not count on. That guarantee is what is given up for never
// leaving a worker idle beside a waiting request.
package engine

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"swdual/internal/alphabet"
	"swdual/internal/master"
	"swdual/internal/resultcache"
	"swdual/internal/sched"
	"swdual/internal/seq"
	"swdual/internal/sw"
)

// DefaultTopK is the hits-per-query cap a zero Config.TopK selects; the
// sharding facade caps its gather with the same value.
const DefaultTopK = 10

// Config tunes a Searcher. The zero value works: master.DefaultPool,
// BLOSUM62 defaults from sw.DefaultParams, dual-approximation policy.
type Config struct {
	// Params are the alignment parameters shared by all workers.
	Params sw.Params
	// Pool counts the CPU and GPU workers, see master.PoolSpec. An empty
	// Pool selects master.DefaultPool.
	Pool master.PoolSpec
	// Workers overrides the built-in worker construction; Pool is then
	// ignored.
	Workers []master.Worker
	// TopK bounds hits kept per query (default 10). Per-request TopK may
	// be lower, never higher.
	TopK int
	// Policy selects the wave scheduling policy (dual-approx default).
	Policy master.Policy
	// Cache enables the result cache in front of the dispatcher: a
	// repeated search (same query residues, same effective TopK, same
	// database) is answered from a bounded LRU without running a wave.
	// Off by default — the paper's
	// benchmarks measure scheduling, so reproduction runs must pay
	// every wave. Hits are byte-identical with the cache on or off.
	Cache bool
	// CacheSize caps cached search fingerprints when Cache is on (0
	// selects resultcache.DefaultMaxEntries); a negative value is
	// rejected by New. The cache's memory cap is always
	// resultcache.DefaultMaxBytes.
	CacheSize int
}

func (c *Config) defaults() {
	if c.Params.Matrix == nil {
		c.Params = sw.DefaultParams()
	}
	if c.Workers == nil && c.Pool.Total() == 0 {
		c.Pool = master.DefaultPool()
	}
	if c.TopK <= 0 {
		c.TopK = DefaultTopK
	}
}

// maxBatch caps the queries coalesced into one wave.
const maxBatch = 1024

// SearchOptions tunes one Search call.
type SearchOptions struct {
	// TopK bounds reported hits per query; 0 uses the Searcher's TopK.
	// Values above the Searcher's TopK are capped to it.
	TopK int
}

// Stats counts what the Searcher has amortized and served. All counters
// are cumulative since New. The summable ones are listed in Counters,
// which is how every other layer — the wire, the shard and replica
// sums, /metrics — reads them.
type Stats struct {
	DBSequences    int
	DBResidues     int64
	DBChecksum     uint32
	Prepared       int // database preparation passes (1 for the Searcher's lifetime)
	WorkersStarted int // worker goroutines ever started (pool size; never rebuilt)
	Searches       uint64
	Queries        uint64
	Waves          uint64
	BatchedWaves   uint64 // waves that coalesced more than one request
	// PipelinedWaves, OverlapNanos and HedgedSearches are always zero.
	// They are retained only because benchmark/'s
	// engine.pipelined_ratio, engine.overlap_ms and replica.hedged
	// probes read them, and go when those probes do; nothing sets, sums
	// or sends them (the first two left StatsResponse in wire version 8;
	// HedgedSearches left Counters, and with it /metrics and the Stats
	// frame, when replica hedging was removed).
	PipelinedWaves uint64
	OverlapNanos   uint64
	HedgedSearches uint64
	// CacheHits / CacheMisses / CacheEvictions count result-cache
	// traffic (all zero with Config.Cache off). Searches - CacheHits is
	// the number of requests that actually entered the dispatcher.
	CacheHits      uint64
	CacheMisses    uint64
	CacheEvictions uint64
	// Replication counters (internal/replica; always zero on a plain
	// engine). FailedOver counts calls retried on a sibling replica
	// after the first choice failed with a lost connection; Redials
	// counts dead replicas brought back by the background reconnect
	// loop. Under sharding they sum across every range's replica set,
	// so a cluster operator sees how often availability machinery
	// actually fired.
	FailedOver uint64
	Redials    uint64
	// DegradedSearches counts searches answered with partial coverage:
	// a sharded coordinator merged the surviving ranges after some
	// range lost every replica (the report's Coverage says which).
	// Always zero on a plain engine.
	DegradedSearches uint64
	// Workers snapshots each worker's advertised vs observed throughput
	// at the moment Stats was called — the rates the next scheduling
	// wave will be planned with. On a sharded Searcher the names are
	// shard-prefixed (shard0/cpu-0); over a remote backend they cross
	// the wire in the Stats frame, so cluster operators see the real
	// cluster throughput, not the advertised constants.
	Workers []WorkerRate
}

// WorkerRate is one worker's throughput snapshot inside Stats.
type WorkerRate struct {
	Name            string
	Kind            sched.Kind // scheduling pool (CPU or GPU)
	AdvertisedGCUPS float64    // the static rate the worker registered with
	ObservedGCUPS   float64    // live EWMA over measured task rates (== advertised until Tasks > 0)
	Tasks           uint64     // completed tasks folded into the estimate
}

// Counter names one summable Stats counter: Name is its wire and
// /metrics name (swdual_engine_<Name>_total), Help its /metrics help
// text, and Of addresses it inside a Stats.
type Counter struct {
	Name string
	Help string
	Of   func(*Stats) *uint64
}

// Counters lists every summable Stats counter once. The wire frame, the
// shard and replica sums and /metrics all iterate it, so a new counter
// is a Stats field, a line here and the site that increments it.
var Counters = []Counter{
	{"searches", "Search calls served by the backend.", func(s *Stats) *uint64 { return &s.Searches }},
	{"queries", "Queries served by the backend.", func(s *Stats) *uint64 { return &s.Queries }},
	{"waves", "Scheduling waves dispatched.", func(s *Stats) *uint64 { return &s.Waves }},
	{"batched_waves", "Waves that coalesced more than one request.", func(s *Stats) *uint64 { return &s.BatchedWaves }},
	{"cache_hits", "Result-cache hits.", func(s *Stats) *uint64 { return &s.CacheHits }},
	{"cache_misses", "Result-cache misses.", func(s *Stats) *uint64 { return &s.CacheMisses }},
	{"cache_evictions", "Result-cache evictions.", func(s *Stats) *uint64 { return &s.CacheEvictions }},
	{"failed_over", "Calls retried on a sibling replica after a lost connection.", func(s *Stats) *uint64 { return &s.FailedOver }},
	{"redials", "Dead replicas revived by the background reconnect loop.", func(s *Stats) *uint64 { return &s.Redials }},
	{"degraded_searches", "Searches answered with partial coverage because a range had no live replica.", func(s *Stats) *uint64 { return &s.DegradedSearches }},
}

// Add folds one backend's snapshot into a facade's aggregate: every
// listed counter except Searches and Queries — a facade counts its own
// calls, since a search fanned out to every backend is still one search
// — plus the preparation passes and worker goroutines (N backends
// prepare N times), and other's workers with workerPrefix prepended to
// their names.
func (s *Stats) Add(other Stats, workerPrefix string) {
	for _, c := range Counters {
		if p := c.Of(s); p != &s.Searches && p != &s.Queries {
			*p += *c.Of(&other)
		}
	}
	s.Prepared += other.Prepared
	s.WorkersStarted += other.WorkersStarted
	for _, w := range other.Workers {
		w.Name = workerPrefix + w.Name
		s.Workers = append(s.Workers, w)
	}
}

// ErrClosed is returned by Search after Close.
var ErrClosed = errors.New("engine: searcher is closed")

// request is one Search call in flight.
type request struct {
	ctx     context.Context
	queries *seq.Set
	topK    int
	merge   *master.Merger
	// schedule is the wave schedule the request took part in (shared,
	// read-only; covers the whole wave, not just this request).
	schedule *sched.Schedule
	err      atomic.Pointer[error]
}

func (r *request) fail(err error) {
	r.err.CompareAndSwap(nil, &err)
}

// abandon fails a request that will never be dispatched.
func (r *request) abandon(err error) {
	r.fail(err)
	for i := 0; i < r.queries.Len(); i++ {
		r.merge.Skip(i)
	}
}

// Searcher is a persistent hybrid search service over one database.
type Searcher struct {
	cfg Config

	// Prepared once at New, shared by every request.
	db         *seq.Set
	dbResidues int64
	checksum   uint32
	// chunks are the ranges a split wave runs each query over, offsets
	// their first database indexes; nil unless the pool has two or more
	// workers, all of CPU kind, and the database fills two or more
	// chunks.
	chunks  []chunk
	offsets []int

	pool   *master.Pool
	submit chan *request
	quit   chan struct{}
	done   chan struct{} // dispatcher exited
	once   func()        // idempotent close

	// free recycles the waves whose tasks are all Done.
	mu   sync.Mutex
	free []*wave

	// cache is the result cache in front of the dispatcher; nil with
	// Config.Cache off, and Search then goes straight to searchWave.
	cache *resultcache.Cache

	prepared     atomic.Int64
	searches     atomic.Uint64
	queries      atomic.Uint64
	waves        atomic.Uint64
	batchedWaves atomic.Uint64
}

// maxChunks caps the chunks a split query runs as: the largest split
// whose latency and CPU were measured. On a 2-vCPU host, over a
// 300-subject corpus, a lone 240-residue query on 2 chunks finished in
// about 0.8 of the unsplit time for about 1.2 times its process CPU; 4
// and 8 chunks cost about 1.5 and 2.1 times the CPU, as chunks too
// small to fill the 32 lanes leave them idle or route subjects to the
// pair kernel. What more chunks gain on more cores is unmeasured.
const maxChunks = 2

// chunk is one range of the database a split query runs over.
type chunk struct {
	set      *seq.Set
	residues int64
}

// New prepares the database once and starts the persistent worker pool
// and the batching dispatcher. Callers own the returned Searcher and
// must Close it to release the workers.
func New(db *seq.Set, cfg Config) (*Searcher, error) {
	if db == nil {
		return nil, fmt.Errorf("engine: nil database")
	}
	if cfg.CacheSize < 0 {
		return nil, fmt.Errorf("engine: negative CacheSize %d (0 selects the default)", cfg.CacheSize)
	}
	cfg.defaults()
	if err := cfg.Params.Matrix.Covers(db.Alpha); err != nil {
		return nil, err
	}
	s := &Searcher{
		cfg:    cfg,
		db:     db,
		submit: make(chan *request),
		quit:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	if cfg.Cache {
		s.cache = resultcache.New(resultcache.Config{MaxEntries: cfg.CacheSize})
	}
	s.prepare()
	workers := cfg.Workers
	if workers == nil {
		workers = master.BuildPoolWorkers(cfg.Params, cfg.Pool, cfg.TopK)
	}
	pool, err := master.NewPool(workers)
	if err != nil {
		return nil, err
	}
	s.pool = pool
	if r := master.RatesOf(workers); r.GPUs == 0 {
		s.cut(min(r.CPUs, maxChunks))
	}
	var closeOnce atomic.Bool
	s.once = func() {
		if closeOnce.CompareAndSwap(false, true) {
			close(s.quit)
		}
	}
	go s.dispatch()
	return s, nil
}

// prepare runs the once-per-database work every request reuses: the
// residue volume the scheduler prices tasks with and a content checksum
// the wire handshake verifies. Residue encoding already happened
// when the set was built; keeping the set resident amortizes it.
func (s *Searcher) prepare() {
	s.dbResidues = s.db.TotalResidues()
	s.checksum = s.db.Checksum()
	s.prepared.Add(1)
}

// cut splits the database into the chunks of a split wave: parts ranges
// of balanced residues, those without a sequence left out, and none at
// all when fewer than two remain.
func (s *Searcher) cut(parts int) {
	s.chunks, s.offsets = nil, nil
	for _, r := range s.db.Ranges(parts) {
		if r.Lo == r.Hi {
			continue
		}
		set := s.db.Slice(r.Lo, r.Hi)
		s.chunks = append(s.chunks, chunk{set: set, residues: set.TotalResidues()})
		s.offsets = append(s.offsets, r.Lo)
	}
	if len(s.chunks) < 2 {
		s.chunks, s.offsets = nil, nil
	}
}

// Alphabet returns the database alphabet.
func (s *Searcher) Alphabet() *alphabet.Alphabet { return s.db.Alpha }

// Checksum fingerprints the loaded database (CRC-32 of all residues).
func (s *Searcher) Checksum() uint32 { return s.checksum }

// TopK returns the hits-per-query cap: a Search asking for more gets
// this many.
func (s *Searcher) TopK() int { return s.cfg.TopK }

// Params returns the scoring every hit is computed with: the
// substitution matrix and the gap penalties.
func (s *Searcher) Params() sw.Params { return s.cfg.Params }

// Stats reports the Searcher's cumulative counters and a live snapshot
// of every worker's observed throughput.
func (s *Searcher) Stats() Stats {
	workers := s.pool.Workers()
	rates := make([]WorkerRate, len(workers))
	for i, w := range workers {
		observed, tasks := s.pool.Observed(i)
		rates[i] = WorkerRate{
			Name:            w.Name(),
			Kind:            w.Kind(),
			AdvertisedGCUPS: w.RateGCUPS(),
			ObservedGCUPS:   observed,
			Tasks:           tasks,
		}
	}
	st := Stats{
		DBSequences:    s.db.Len(),
		DBResidues:     s.dbResidues,
		DBChecksum:     s.checksum,
		Prepared:       int(s.prepared.Load()),
		WorkersStarted: s.pool.Size(),
		Searches:       s.searches.Load(),
		Queries:        s.queries.Load(),
		Waves:          s.waves.Load(),
		BatchedWaves:   s.batchedWaves.Load(),
		Workers:        rates,
	}
	if s.cache != nil {
		cs := s.cache.Stats()
		st.CacheHits, st.CacheMisses, st.CacheEvictions = cs.Hits, cs.Misses, cs.Evictions
	}
	return st
}

// Search compares every query against the database and returns merged,
// score-sorted hits per query: for each query, the TopK of sw.Score over
// every subject, in master.HitBefore order. It is safe for any number of
// goroutines to call Search concurrently; concurrent calls may share a
// scheduling wave. Search honors ctx: on cancellation it returns
// ctx.Err() and unstarted tasks are skipped.
//
// With Config.Cache on, a search whose fingerprint (query residues,
// effective TopK, database checksum) was answered before returns the
// cached hits without entering the dispatcher; a miss runs its own
// wave under its own ctx and caches the answer, an error is never
// cached. Hits are byte-identical to an uncached search either way.
func (s *Searcher) Search(ctx context.Context, queries *seq.Set, opts SearchOptions) (*master.Report, error) {
	select {
	case <-s.quit: // before the cache and the empty set's shortcut
		return nil, ErrClosed
	default:
	}
	if queries == nil {
		return nil, fmt.Errorf("engine: nil query set")
	}
	if queries.Alpha != s.db.Alpha {
		return nil, fmt.Errorf("engine: query alphabet differs from database alphabet")
	}
	topK := opts.TopK
	if topK <= 0 || topK > s.cfg.TopK {
		topK = s.cfg.TopK
	}
	s.searches.Add(1)
	s.queries.Add(uint64(queries.Len()))
	if s.cache == nil || queries.Len() == 0 {
		return s.searchWave(ctx, queries, topK)
	}
	return resultcache.Do(ctx, s.cache, resultcache.Key(s.checksum, topK, queries),
		queries, func() (*master.Report, error) { return s.searchWave(ctx, queries, topK) })
}

// searchWave runs one real search through the dispatcher: submit the
// request, wait for its merge, assemble the report and apply the
// per-request TopK truncation. This is the whole of Search when the
// result cache is off.
func (s *Searcher) searchWave(ctx context.Context, queries *seq.Set, topK int) (*master.Report, error) {
	// A dead context never gets a wave: callers rely on cancellation
	// meaning "stop", and a doomed request must not occupy a wave slot
	// (the gateway propagates client deadlines down this ctx precisely so
	// expired work is never planned).
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	req := &request{
		ctx:     ctx,
		queries: queries,
		topK:    topK,
		merge:   master.NewMerger(queries.Len()),
	}
	if queries.Len() > 0 {
		select {
		case s.submit <- req:
		case <-s.quit:
			return nil, ErrClosed
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	select {
	case <-req.merge.Done():
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	if errp := req.err.Load(); errp != nil {
		return nil, *errp
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rep := req.merge.Report(req.schedule)
	if topK < s.cfg.TopK {
		for i := range rep.Results {
			if len(rep.Results[i].Hits) > topK {
				rep.Results[i].Hits = rep.Results[i].Hits[:topK]
			}
		}
	}
	return rep, nil
}

// Close stops admitting requests (pending ones fail with ErrClosed),
// stops the dispatcher and then closes the pool, which runs every task
// already submitted to it, so dispatched work completes and no Search
// caller sees the pool's own close error. It is idempotent and safe to
// call concurrently.
func (s *Searcher) Close() error {
	s.once()
	<-s.done
	return s.pool.Close()
}

// dispatch is the service loop: wait until a worker is idle, collect a
// wave, plan it on the idle workers, submit it, repeat. Exactly one
// dispatcher runs per Searcher. Requests that arrive while every worker
// is busy wait on the submit channel and form the next wave.
func (s *Searcher) dispatch() {
	defer close(s.done)
	for s.awaitIdle() {
		select {
		case <-s.quit:
			return
		case req := <-s.submit:
			s.planWave(s.coalesce(req))
		}
	}
}

// awaitIdle is the dispatcher's gate: it blocks until the pool has an
// idle worker and reports false once the Searcher closes.
func (s *Searcher) awaitIdle() bool {
	for s.pool.Idle() == [2]int{} {
		select {
		case <-s.pool.Freed():
		case <-s.quit:
			return false
		}
	}
	return true
}

// taskDone retires one task of wave w and recycles the wave after its
// last task.
func (s *Searcher) taskDone(w *wave) {
	s.mu.Lock()
	if w.pending--; w.pending == 0 {
		s.free = append(s.free, w)
	}
	s.mu.Unlock()
}

// coalesce implements online batching without waiting: the requests
// already on the submit channel (they arrived while every worker was
// busy) join first's wave, up to maxBatch queries.
func (s *Searcher) coalesce(first *request) []*request {
	batch := []*request{first}
	for n := first.queries.Len(); n < maxBatch; {
		select {
		case r := <-s.submit:
			batch = append(batch, r)
			n += r.queries.Len()
		default:
			return batch
		}
	}
	return batch
}

// waveEntry addresses one query of one request within a wave.
type waveEntry struct {
	req   *request
	local int // query index within the request
	// In a split wave: parts not yet Done, and whether one was skipped
	// (both under Searcher.mu).
	left    int
	skipped bool
}

// wave holds the plan-stage slices of one scheduling wave. Waves
// overlap, so each owns its slices until its last task is Done; the
// Searcher then recycles it through its free list, so a steady-state
// dispatcher stops paying the allocator per wave — capacity is kept,
// length resliced to zero.
//
// Task gi of a wave is part gi % per of entry gi / per: per is 1, or the
// Searcher's chunk count in a split wave.
type wave struct {
	entries []waveEntry
	per     int
	cells   []int                // per task
	ids     []string             // per task: its query's ID
	all     []int                // identity queue (self-scheduling)
	parts   []master.QueryResult // per task of a split wave, until its entry merges
	lists   [][]master.Hit       // per task of a split wave: its entry's merge scratch
	tasks   []master.PoolTask    // one queue's tasks, copied by Submit
	pending int                  // tasks not yet Done (under Searcher.mu)
}

// newWave takes a recycled wave off the free list, or a fresh one.
func (s *Searcher) newWave() *wave {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.free)
	if n == 0 {
		return new(wave)
	}
	w := s.free[n-1]
	s.free = s.free[:n-1]
	clear(w.entries) // drop request pointers so reuse can't pin them
	clear(w.tasks)
	clear(w.parts)
	clear(w.lists)
	w.entries, w.cells, w.ids, w.all, w.tasks, w.parts, w.lists = w.entries[:0], w.cells[:0], w.ids[:0], w.all[:0], w.tasks[:0], w.parts[:0], w.lists[:0]
	return w
}

// planWave runs the CPU side of one wave and starts it: account it,
// split its queries into chunk tasks if every worker is idle and every
// chunk task can start at once, assemble the entry/cell/id slices,
// build the instance over the idle part of the pool with the measured
// rates snapshotted now, run the scheduling policy and submit each pool
// queue its tasks in planned start order. On a scheduling error the
// batch is failed.
func (s *Searcher) planWave(batch []*request) {
	// Deadline propagation ends here: a request whose ctx died while it
	// waited to coalesce is failed now instead of being planned — doomed
	// work never reaches a worker queue, so an overloaded caller that
	// gave up frees its wave share instead of wasting it.
	live := batch[:0]
	for _, r := range batch {
		if err := r.ctx.Err(); err != nil {
			r.abandon(err)
			continue
		}
		live = append(live, r)
	}
	if len(live) == 0 {
		return
	}
	batch = live
	s.waves.Add(1)
	if len(batch) > 1 {
		s.batchedWaves.Add(1)
	}
	w := s.newWave()
	idle, n := s.pool.Idle(), 0
	for _, r := range batch {
		n += r.queries.Len()
	}
	w.per = 1
	if len(s.chunks) > 1 && idle[sched.CPU] == s.pool.Size() && n*len(s.chunks) <= idle[sched.CPU] {
		w.per = len(s.chunks)
		w.parts = slices.Grow(w.parts, n*w.per)[:n*w.per]
		w.lists = slices.Grow(w.lists, n*w.per)[:n*w.per]
	}
	for _, r := range batch {
		for qi := range r.queries.Seqs {
			q := &r.queries.Seqs[qi]
			w.entries = append(w.entries, waveEntry{req: r, local: qi, left: w.per})
			if w.per == 1 {
				w.cells = append(w.cells, q.Len()*int(s.dbResidues))
				w.ids = append(w.ids, q.ID)
				continue
			}
			for _, c := range s.chunks {
				w.cells = append(w.cells, q.Len()*int(c.residues))
				w.ids = append(w.ids, q.ID)
			}
		}
	}
	var queues [3][]int
	if s.cfg.Policy == master.PolicySelfScheduling {
		for i := range w.cells {
			w.all = append(w.all, i)
		}
		queues[master.Shared] = w.all
	} else {
		// The instance is the idle part of the platform at its measured
		// rates: every scheduling decision sees idle PEs only, and tasks
		// completing now refine the rates the next wave sees. Busy
		// workers still pull from their kind's queue when they free.
		// Each task is priced by its cells: a query against the whole
		// database, or against its chunk.
		rates := s.pool.Rates()
		rates.CPUs, rates.GPUs = idle[sched.CPU], idle[sched.GPU]
		in := master.BuildInstance(1, w.cells, w.ids, rates)
		kinds, schedule, err := master.Assign(s.cfg.Policy, in, s.pool.Workers())
		if err != nil {
			for _, r := range batch {
				r.abandon(err)
			}
			return
		}
		copy(queues[:], kinds[:])
		for _, r := range batch {
			r.schedule = schedule
		}
	}
	w.pending = len(w.cells)
	for q, queue := range queues {
		if len(queue) == 0 {
			continue
		}
		w.tasks = w.tasks[:0]
		for _, gi := range queue {
			w.tasks = append(w.tasks, s.task(w, gi))
		}
		// The pool closes only after the dispatcher exits, and Assign
		// fills only kinds the pool has workers of.
		if err := s.pool.Submit(q, w.tasks...); err != nil {
			panic(err)
		}
	}
}

// task builds the pool task gi of wave w: skipped once its request's ctx
// is dead, routed on completion into the request's merge — in a split
// wave through its entry's parts.
func (s *Searcher) task(w *wave, gi int) master.PoolTask {
	e := gi / w.per
	req, local := w.entries[e].req, w.entries[e].local
	t := master.PoolTask{
		QueryIndex: local,
		Query:      &req.queries.Seqs[local],
		DB:         s.db,
		Canceled:   func() bool { return req.ctx.Err() != nil },
	}
	if w.per > 1 {
		t.DB = s.chunks[gi%w.per].set
		t.Done = func(res master.QueryResult, ran bool) { s.partDone(w, gi, res, ran) }
		return t
	}
	t.Done = func(res master.QueryResult, ran bool) {
		// Retire first: the wave must be back on the free list before
		// its caller can wake and submit again.
		s.taskDone(w)
		if ran {
			req.merge.Add(local, res)
		} else {
			req.fail(req.ctx.Err())
			req.merge.Skip(local)
		}
	}
	return t
}

// partDone records task gi of split wave w, one chunk of its entry's
// query. The entry's last part merges them all into the query's result
// before retiring its task, so the wave, whose parts it reads, cannot
// be recycled under it; a skipped part skips the query.
func (s *Searcher) partDone(w *wave, gi int, res master.QueryResult, ran bool) {
	e := gi / w.per
	entry := &w.entries[e]
	req, local := entry.req, entry.local
	s.mu.Lock()
	w.parts[gi] = res
	entry.skipped = entry.skipped || !ran
	entry.left--
	last, skipped := entry.left == 0, entry.skipped
	s.mu.Unlock()
	if !ran {
		req.fail(req.ctx.Err())
	}
	if !last {
		s.taskDone(w)
		return
	}
	var merged master.QueryResult
	if !skipped {
		parts := w.parts[e*w.per : (e+1)*w.per]
		merged = master.MergeParts(parts, s.offsets, s.cfg.TopK, w.lists[e*w.per:(e+1)*w.per])
		merged.QueryIndex, merged.QueryID = local, req.queries.Seqs[local].ID
		names := make([]string, len(parts))
		for i := range parts {
			names[i] = parts[i].Worker
		}
		merged.Worker = strings.Join(names, "+")
	}
	s.taskDone(w)
	if skipped {
		req.merge.Skip(local)
	} else {
		req.merge.Add(local, merged)
	}
}
