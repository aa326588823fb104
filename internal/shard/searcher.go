package shard

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"swdual/internal/alphabet"
	"swdual/internal/engine"
	"swdual/internal/master"
	"swdual/internal/resultcache"
	"swdual/internal/seq"
	"swdual/internal/stats"
)

// Searcher is a sharded search service: one engine.Backend per database
// shard, a scatter of every Search call to all shards concurrently, and
// a deterministic gather of per-query hits (score desc, then shard-global
// SeqIndex asc) that makes results byte-identical to an unsharded engine
// over the same database. A backend is usually an in-process
// engine.Searcher, but any engine.Backend works — in particular a
// remote.Backend speaking the wire protocol to a shard server on another
// machine — and local and remote backends mix freely in one Searcher.
//
// A search answers what it can. A range whose every replica is down
// (replica.ErrRangeUnavailable) is skipped, the surviving ranges' hits
// are merged exactly as a full search would merge them, and the
// Report's Coverage names what was skipped; such an answer never
// enters the result cache. The search fails only when every range is
// dark, or on any other error.
type Searcher struct {
	db   *seq.Set
	topK int

	ranges   []Range
	backends []engine.Backend

	dbResidues int64
	// rangeResidues holds each range's residue volume, precomputed so a
	// degraded gather prices skipped ranges without rescanning the
	// database.
	rangeResidues []int64
	checksum      uint32

	searches      atomic.Uint64
	queries       atomic.Uint64
	degradedCount atomic.Uint64

	// cache is the coordinator-side result cache (nil when disabled):
	// a hit is answered before the scatter.
	cache *resultcache.Cache

	closeOnce sync.Once
	closeErr  error
}

// EnableCache attaches the coordinator-side result cache: a repeated
// search is answered before the scatter — no range sees it at all,
// which is what lets the cluster keep answering hot queries while shard
// servers restart. maxEntries and maxBytes
// bound it (0 selects the resultcache defaults). Call before serving
// traffic: enabling is not synchronized with concurrent Search calls.
func (s *Searcher) EnableCache(maxEntries int, maxBytes int64) {
	s.cache = resultcache.New(resultcache.Config{MaxEntries: maxEntries, MaxBytes: maxBytes})
}

// WithBackends assembles a sharded Searcher over pre-built backends, one
// per contiguous range of db. Backends may be in-process
// engine.Searchers, remote clients, or any mix; the coordinator still
// holds the whole database locally, which is what lets it verify every
// backend: backends[i].Checksum() must equal the checksum of
// db.Slice(ranges[i]), so a shard server that loaded a different
// database (skew) is rejected before any query runs. topK is the gather
// cap (engine.DefaultTopK when zero) and must not exceed any backend's
// own cap: a backend returning fewer hits than the gather keeps would
// make the merged top-k wrong. On success the Searcher owns the
// backends and Close closes all of them; on error the caller keeps
// ownership and must close them itself. The Strategy is ignored: the
// ranges alone define the partition.
func WithBackends(db *seq.Set, _ Strategy, ranges []Range, backends []engine.Backend, topK int) (*Searcher, error) {
	if db == nil {
		return nil, fmt.Errorf("shard: nil database")
	}
	if len(backends) == 0 {
		return nil, fmt.Errorf("shard: no backends")
	}
	if len(ranges) != len(backends) {
		return nil, fmt.Errorf("shard: %d ranges for %d backends", len(ranges), len(backends))
	}
	at := 0
	for i, r := range ranges {
		if r.Lo != at || r.Hi < r.Lo {
			return nil, fmt.Errorf("shard: range %d is [%d,%d), want a contiguous partition (next index %d)", i, r.Lo, r.Hi, at)
		}
		at = r.Hi
	}
	if at != db.Len() {
		return nil, fmt.Errorf("shard: ranges cover [0,%d) of a %d-sequence database", at, db.Len())
	}
	if topK <= 0 {
		topK = engine.DefaultTopK // the gather cap must agree with each shard's cap
	}
	s := &Searcher{
		db:            db,
		topK:          topK,
		ranges:        ranges,
		backends:      backends,
		rangeResidues: make([]int64, len(ranges)),
	}
	// One sweep over the residues computes everything the facade needs:
	// the whole-database fingerprint, each slice's fingerprint for the
	// skew guard (Checksum() is cached on both engine and remote
	// backends, so the comparisons are free), and the residue volumes.
	// The ranges are a verified partition, so the sweep covers every
	// sequence exactly once.
	crcAll := crc32.NewIEEE()
	for i, r := range ranges {
		crcSlice := crc32.NewIEEE()
		for j := r.Lo; j < r.Hi; j++ {
			crcSlice.Write(db.Seqs[j].Residues)
			crcAll.Write(db.Seqs[j].Residues)
			s.dbResidues += int64(db.Seqs[j].Len())
			s.rangeResidues[i] += int64(db.Seqs[j].Len())
		}
		if want := crcSlice.Sum32(); backends[i].Checksum() != want {
			return nil, fmt.Errorf("shard %d [%d,%d): backend database checksum %08x, want %08x (shard server loaded a different database?)",
				i, r.Lo, r.Hi, backends[i].Checksum(), want)
		}
	}
	s.checksum = crcAll.Sum32()
	return s, nil
}

// Shards returns the number of shards.
func (s *Searcher) Shards() int { return len(s.backends) }

// Alphabet returns the database alphabet.
func (s *Searcher) Alphabet() *alphabet.Alphabet { return s.db.Alpha }

// Checksum fingerprints the whole database (CRC-32 of all residues, the
// same value an unsharded engine.Searcher reports), so callers cannot
// tell a sharded backend from an unsharded one.
func (s *Searcher) Checksum() uint32 { return s.checksum }

// Stats aggregates the per-shard engine counters: preparation passes and
// workers sum across shards (N shards prepare N times), while Searches
// and Queries count the facade's own calls — each Search fans out to
// every shard but is still one search. Workers concatenates every
// shard's per-worker rate snapshot under shard-prefixed names
// (shard0/cpu-0), so the observed throughput of the whole cluster —
// in-process and remote shards alike — reads out of one list.
func (s *Searcher) Stats() engine.Stats {
	agg := engine.Stats{
		DBSequences:      s.db.Len(),
		DBResidues:       s.dbResidues,
		DBChecksum:       s.checksum,
		Searches:         s.searches.Load(),
		Queries:          s.queries.Load(),
		DegradedSearches: s.degradedCount.Load(),
	}
	if s.cache != nil {
		cs := s.cache.Stats()
		agg.CacheHits, agg.CacheMisses, agg.CacheEvictions = cs.Hits, cs.Misses, cs.Evictions
	}
	// Backend counters fold into the same totals: a backend may be a
	// remote engine serving other clients with its own cache, or a
	// replica.Set whose failovers and redials roll up here so one
	// Stats call shows availability events across every range.
	for si, b := range s.backends {
		agg.Add(b.Stats(), fmt.Sprintf("shard%d/", si))
	}
	return agg
}

// Search scatters the query set to every shard concurrently, waits for
// all of them, and gathers each query's hits through the deterministic
// TopK merge. It is safe for any number of goroutines and honors ctx the
// way the underlying engines do: on cancellation every shard returns
// ctx.Err() and unstarted tasks are skipped. Because a global top-k hit
// is necessarily in its own shard's top-k, merging the per-shard lists
// loses nothing.
//
// With the coordinator cache on (EnableCache), a repeated search is
// answered before the scatter — no backend is touched — with the same
// semantics as the engine-level cache.
func (s *Searcher) Search(ctx context.Context, queries *seq.Set, opts engine.SearchOptions) (*master.Report, error) {
	if queries == nil {
		return nil, fmt.Errorf("shard: nil query set")
	}
	if queries.Alpha != s.db.Alpha {
		return nil, fmt.Errorf("shard: query alphabet differs from database alphabet")
	}
	topK := opts.TopK
	if topK <= 0 || topK > s.topK {
		topK = s.topK
	}
	s.searches.Add(1)
	s.queries.Add(uint64(queries.Len()))
	if s.cache == nil || queries.Len() == 0 {
		return s.scatter(ctx, queries, topK)
	}
	return resultcache.Do(ctx, s.cache, resultcache.Key(s.checksum, topK, queries),
		queries, func() (*master.Report, error) { return s.scatter(ctx, queries, topK) })
}

// scatter runs one real sharded search: fan out to every backend, wait,
// triage errors, gather. This is the whole of Search when the
// coordinator cache is off.
//
// A range failing with replica.ErrRangeUnavailable does not cancel its
// siblings and does not fail the call: the survivors are gathered and
// the Report carries Coverage naming the skipped ranges. Any other
// failure is the first non-collateral error: it cancels the scatter
// and fails the search.
func (s *Searcher) scatter(ctx context.Context, queries *seq.Set, topK int) (*master.Report, error) {
	start := time.Now()
	// The first shard to fail with anything but a dark range cancels
	// its siblings: the search must fail fast, not after the slowest
	// healthy shard finishes work whose results will be discarded.
	scatterCtx, cancelScatter := context.WithCancel(ctx)
	defer cancelScatter()
	reps := make([]*master.Report, len(s.backends))
	errs := make([]error, len(s.backends))
	// skipped[i] marks a dark range the scatter rode over; each
	// goroutine writes only its own slot, and wg.Wait orders the writes
	// before any read.
	skipped := make([]bool, len(s.backends))
	// The root cause is pinned at the moment it happens, not recovered
	// by scanning errs afterwards: when two shards fail in the same
	// scatter, an index-order scan could blame a shard whose only
	// failure was collateral cancellation, or pick different winners on
	// different runs. The first non-collateral error to reach the lock
	// wins, together with the index of the shard that raised it.
	var failMu sync.Mutex
	var failErr error
	failIdx := -1
	var wg sync.WaitGroup
	for i := range s.backends {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reps[i], errs[i] = s.backends[i].Search(scatterCtx, queries, engine.SearchOptions{TopK: topK})
			if err := errs[i]; err != nil {
				// The marker interface (implemented by
				// replica.ErrRangeUnavailable) keeps this package from
				// importing replica, which would close an import cycle
				// through remote's tests.
				var rangeDown interface{ RangeUnavailable() bool }
				if errors.As(err, &rangeDown) && rangeDown.RangeUnavailable() {
					// The range is dark but the search survives: record
					// the skip and, crucially, do NOT cancel the
					// siblings — they are the answer now.
					skipped[i] = true
					return
				}
				if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
					failMu.Lock()
					if failErr == nil {
						failErr, failIdx = err, i
					}
					failMu.Unlock()
				}
				cancelScatter()
			}
		}(i)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err // the caller's own cancellation wins
	}
	if failErr != nil {
		// ErrClosed passes through untouched (callers compare against
		// it); anything else — notably a lost remote connection or an
		// exhausted replica set — names the failing shard.
		if errors.Is(failErr, engine.ErrClosed) {
			return nil, failErr
		}
		return nil, fmt.Errorf("shard %d [%d,%d): %w", failIdx, s.ranges[failIdx].Lo, s.ranges[failIdx].Hi, failErr)
	}
	// Only collateral context errors remain: every recorded error came
	// from cancelScatter (the caller's own ctx was checked above).
	for i, err := range errs {
		if err != nil && !skipped[i] {
			return nil, err
		}
	}
	if !slices.Contains(skipped, false) {
		// No partial answer to give: with every range dark, the first
		// range's own error, which names the range, is the failure (all
		// carry the same typed cause).
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	}
	rep := s.gather(queries, reps, topK, start)
	if rep.Coverage = s.coverage(skipped, errs); rep.Coverage != nil {
		s.degradedCount.Add(1)
	}
	return rep, nil
}

// coverage builds the partial-answer metadata for a scatter that
// skipped ranges, or nil when every range was searched (the common
// case must stay allocation- and metadata-free so full answers remain
// byte-identical to an unsharded search's).
func (s *Searcher) coverage(skipped []bool, errs []error) *master.Coverage {
	if !slices.Contains(skipped, true) {
		return nil
	}
	cov := &master.Coverage{
		RangesTotal:   len(s.ranges),
		ResiduesTotal: s.dbResidues,
	}
	for i, sk := range skipped {
		if !sk {
			cov.RangesSearched++
			cov.ResiduesSearched += s.rangeResidues[i]
			continue
		}
		// A dark range's error names the range, which the entry names
		// already: its Reason says the rest.
		reason := ""
		var dark interface{ Reason() string }
		if errors.As(errs[i], &dark) {
			reason = dark.Reason()
		} else if errs[i] != nil {
			reason = errs[i].Error()
		}
		cov.Skipped = append(cov.Skipped, master.SkippedRange{
			Index:  i,
			Lo:     s.ranges[i].Lo,
			Hi:     s.ranges[i].Hi,
			Reason: reason,
		})
	}
	return cov
}

// gather merges the per-shard reports into one whole-database Report:
// hits via MergeTopK with each shard's index offset and accounting by
// sum. No single Schedule spans the shards — each ran its own wave — so
// Schedule stays nil. A nil entry in reps is a skipped (dark) range:
// it contributes nothing — an empty hit list merges as the absence it
// is — and skipping means the merged order of the surviving hits is
// exactly what a full search would have produced for those ranges.
func (s *Searcher) gather(queries *seq.Set, reps []*master.Report, topK int, start time.Time) *master.Report {
	rep := &master.Report{
		Results: make([]master.QueryResult, queries.Len()),
	}
	lists := make([][]master.Hit, len(reps))
	offsets := make([]int, len(reps))
	for qi := range rep.Results {
		qr := master.QueryResult{QueryIndex: qi, QueryID: queries.Seqs[qi].ID}
		for si, r := range reps {
			offsets[si] = s.ranges[si].Lo
			if r == nil {
				lists[si] = nil
				continue
			}
			res := r.Results[qi]
			lists[si] = res.Hits
			qr.Elapsed += res.Elapsed
			qr.Cells += res.Cells
		}
		qr.Hits = master.MergeTopK(lists, offsets, topK)
		rep.Results[qi] = qr
		rep.Cells += qr.Cells
	}
	rep.Wall = time.Since(start)
	rep.GCUPS = stats.GCUPS(rep.Cells, rep.Wall.Seconds())
	return rep
}

// Close closes every shard's backend (in-process dispatchers and worker
// pools, remote connections). It is idempotent and safe to call
// concurrently; the first error wins. Search calls after Close fail with
// engine.ErrClosed.
func (s *Searcher) Close() error {
	s.closeOnce.Do(func() {
		for _, b := range s.backends {
			if err := b.Close(); err != nil && s.closeErr == nil {
				s.closeErr = err
			}
		}
	})
	return s.closeErr
}
