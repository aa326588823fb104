package swdual

import (
	"cmp"
	"context"
	"fmt"
	"net"
	"time"

	"swdual/internal/engine"
	"swdual/internal/remote"
	"swdual/internal/replica"
	"swdual/internal/shard"
)

// Searcher is a persistent search service over one database: it loads
// the database once (sequences, residue encoding, length statistics,
// checksum), keeps a long-lived pool of CPU workers, and
// serves any number of concurrent Search calls. Concurrent requests are
// coalesced into shared dual-approximation scheduling waves, so the
// cost of preparation and scheduling is amortized across callers — the
// paper's long-lived master (§IV) as a service.
//
// A Searcher must be Closed to release its workers. For a single search
// the package-level Search is the simplest entry point; it runs one
// request through a temporary Searcher.
//
// With Options.ReplicaShards this process is the coordinator of a
// cluster: the database is partitioned into ranges, each held by one or
// more interchangeable serve processes (see ServeShard) behind a
// failover/redial facade, so a range with several servers
// survives one dying mid-flight. Search scatters to every range and
// gathers the per-query hits through a deterministic TopK merge, so the
// results stay byte-identical to the unsharded engine.
type Searcher struct {
	inner  engine.Backend
	db     *Database
	shards int
}

// SearchOptions tunes one Searcher.Search call.
type SearchOptions struct {
	// TopK bounds reported hits per query; 0 uses the Searcher's TopK
	// from Options. Values above the Searcher's TopK are capped, and a
	// negative one is refused.
	TopK int
}

// SearcherStats reports what a Searcher has amortized and served.
type SearcherStats = engine.Stats

// NewSearcher prepares db once and starts the persistent worker pool
// described by opt (Pool, Matrix, gap penalties, Policy, TopK).
func NewSearcher(db *Database, opt Options) (*Searcher, error) {
	if db == nil {
		return nil, errNilSets
	}
	cfg, err := opt.engineConfig()
	if err != nil {
		return nil, err
	}
	var inner engine.Backend
	shards := 1
	if len(opt.ReplicaShards) > 0 {
		sh, err := dialReplicaShards(db, opt.ReplicaShards, cfg, opt.DialTimeout)
		if err != nil {
			return nil, err
		}
		if opt.Cache {
			// The cache belongs in the coordinator: a cached answer skips
			// the network scatter entirely.
			sh.EnableCache(opt.CacheSize, 0)
		}
		inner, shards = sh, sh.Shards()
	} else {
		eng, err := engine.New(db.set, cfg)
		if err != nil {
			return nil, err
		}
		inner = eng
	}
	return &Searcher{inner: inner, db: db, shards: shards}, nil
}

// dialReplicaShards assembles the coordinator side of a cluster: split
// the local database into the ranges the shard servers hold, hand each
// range's addresses to a replica.Set — the facade that dials, fails
// over and re-dials — with the slice checksum as the skew guard, and
// feed the sets to the scatter/gather. A server that cannot be reached
// is down and re-dialed in the background, so a range with no
// reachable server starts dark and is skipped until one comes up. A
// server that holds another database or alphabet, caps hits below the
// gather's TopK or scores other than cfg is refused, at the first dial
// and at every redial alike: the merged top-k would silently be wrong.
// At construction a refusal fails the coordinator, naming the range and
// the address.
func dialReplicaShards(db *Database, groups [][]string, cfg engine.Config, dialTimeout time.Duration) (*shard.Searcher, error) {
	topK := cmp.Or(cfg.TopK, engine.DefaultTopK)
	matrix, gaps := cfg.Params.Matrix.Name(), cfg.Params.Gaps
	ranges := shard.RangesFor(db.set, len(groups), shard.BalancedResidues)
	backends := make([]engine.Backend, 0, len(groups))
	fail := func(err error) (*shard.Searcher, error) {
		for _, b := range backends {
			b.Close()
		}
		return nil, err
	}
	for i, addrs := range groups {
		if len(addrs) == 0 {
			return fail(fmt.Errorf("swdual: shard %d has no replica addresses", i))
		}
		want := db.set.Slice(ranges[i].Lo, ranges[i].Hi).Checksum()
		reps := make([]replica.Replica, len(addrs))
		for j, addr := range addrs {
			reps[j].Redial = func() (engine.Backend, error) {
				b, err := remote.DialTimeout(addr, want, dialTimeout)
				if err != nil {
					return nil, err
				}
				// 0 and "": the server did not name its cap or its scoring.
				m, g := b.Scoring()
				switch c := b.TopK(); {
				case c != 0 && c < topK:
					err = fmt.Errorf("server %s caps hits at TopK %d, below the coordinator's TopK %d", addr, c, topK)
				case m != "" && (m != matrix || g != gaps):
					err = fmt.Errorf("server %s scores with %s %d/%d, the coordinator with %s %d/%d", addr, m, g.Start, g.Extend, matrix, gaps.Start, gaps.Extend)
				case b.Alphabet() != db.set.Alpha:
					err = fmt.Errorf("server %s holds a %s database, the coordinator a %s one", addr, b.Alphabet().Name(), db.set.Alpha.Name())
				}
				if err != nil {
					b.Close()
					return nil, err
				}
				return b, nil
			}
		}
		name := fmt.Sprintf("shard %d [%d,%d)", i, ranges[i].Lo, ranges[i].Hi)
		set, err := replica.NewSet(name, want, reps, replica.Config{Index: i})
		if err != nil {
			return fail(fmt.Errorf("swdual: %w", err))
		}
		backends = append(backends, set)
	}
	sh, err := shard.WithBackends(db.set, shard.BalancedResidues, ranges, backends, topK)
	if err != nil {
		return fail(err)
	}
	return sh, nil
}

// ServeShard is the one wire server: it serves one range of db on l
// for a cluster coordinator until the listener closes. The database is
// split into count ranges of balanced residues (the coordinator must
// dial count ranges) and slice index gets its own persistent engine;
// count == 1 serves the whole database. A coordinator built with
// Options.ReplicaShards verifies the slice checksum at every dial, so
// serving the wrong index, count or database is refused instead of
// corrupting merged results, as is scoring with another matrix or
// other gap penalties. A coordinator may start before its servers: it
// dials each until it answers. Clients that are not a coordinator
// search through the HTTP gateway (NewGateway) instead.
func ServeShard(l net.Listener, db *Database, index, count int, opt Options) error {
	if db == nil {
		return errNilSets
	}
	if count < 1 || index < 0 || index >= count {
		return fmt.Errorf("swdual: shard index %d of %d out of range", index, count)
	}
	cfg, err := opt.engineConfig()
	if err != nil {
		return err
	}
	r := shard.RangesFor(db.set, count, shard.BalancedResidues)[index]
	eng, err := engine.New(db.set.Slice(r.Lo, r.Hi), cfg)
	if err != nil {
		return err
	}
	defer eng.Close()
	return engine.Serve(l, eng)
}

// Search compares every query against the database and returns merged,
// score-sorted hits per query. It is safe to call from any number of
// goroutines; results are identical to one-shot Search calls with the
// Searcher's Options. Search honors ctx cancellation.
func (s *Searcher) Search(ctx context.Context, queries *Database, opts SearchOptions) (*Report, error) {
	if queries == nil {
		return nil, errNilSets
	}
	if opts.TopK < 0 {
		return nil, fmt.Errorf("swdual: negative TopK %d (0 selects the Searcher's)", opts.TopK)
	}
	return s.inner.Search(ctx, queries.set, engine.SearchOptions{TopK: opts.TopK})
}

// Stats reports the Searcher's cumulative counters (preparation passes,
// workers started, searches, waves). On a coordinator the counters span
// every shard server: preparation passes and workers sum across them
// while Searches counts each scatter/gather call once.
func (s *Searcher) Stats() SearcherStats { return s.inner.Stats() }

// Shards reports how many database ranges back the Searcher (1 unless
// it coordinates ReplicaShards).
func (s *Searcher) Shards() int { return s.shards }

// Database returns the loaded database.
func (s *Searcher) Database() *Database { return s.db }

// Checksum fingerprints the loaded database (on a coordinator, the
// whole database its ranges are verified against at every dial).
func (s *Searcher) Checksum() uint32 { return s.inner.Checksum() }

// Close stops the dispatcher and worker pool. It is idempotent; Search
// calls after Close fail. A Database opened by OpenDatabase stays open:
// its owner closes it after the last Searcher over it.
func (s *Searcher) Close() error { return s.inner.Close() }
