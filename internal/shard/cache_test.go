package shard

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"swdual/internal/alphabet"
	"swdual/internal/engine"
	"swdual/internal/master"
	"swdual/internal/seq"
	"swdual/internal/synth"
)

// TestCachedShardedMatchesUnsharded is the shard-layer equivalence
// proof: with the coordinator cache on, first-time and repeated
// searches stay byte-identical to an unsharded engine, and the repeats
// never reach a shard — the scatter is skipped entirely.
func TestCachedShardedMatchesUnsharded(t *testing.T) {
	const topK = 5
	db := synth.RandomSet(alphabet.Protein, 41, 10, 150, 2001)
	queries := synth.RandomSet(alphabet.Protein, 6, 20, 90, 2002)
	ecfg := engine.Config{Pool: master.PoolSpec{CPU: 1, GPU: 1}, TopK: topK}

	whole, err := engine.New(db, ecfg)
	if err != nil {
		t.Fatal(err)
	}
	defer whole.Close()
	want := searchHits(t, whole, queries, topK)

	sharded := localSharded(t, db, 3, Contiguous, ecfg)
	defer sharded.Close()
	sharded.EnableCache(0, 0)

	for round := 0; round < 3; round++ {
		if got := searchHits(t, sharded, queries, topK); !bytes.Equal(got, want) {
			t.Fatalf("round %d: cached sharded hits differ from unsharded", round)
		}
	}
	st := sharded.Stats()
	if st.CacheMisses != 1 || st.CacheHits != 2 {
		t.Fatalf("coordinator misses/hits %d/%d, want 1/2", st.CacheMisses, st.CacheHits)
	}
	// The proof the scatter was skipped: each shard engine saw exactly
	// one search in three rounds.
	for si, b := range sharded.backends {
		if shardStats := b.Stats(); shardStats.Searches != 1 {
			t.Fatalf("shard %d ran %d searches, want 1 (cached answers must skip the scatter)", si, shardStats.Searches)
		}
	}
	// The range engines run uncached: no per-range cache traffic beyond
	// the coordinator's own counters.
	if st.Waves != 3 {
		t.Fatalf("waves %d, want 3 (one per shard, once)", st.Waves)
	}
}

// gateBackend wraps a real engine and pins its Search until released,
// so shard-level collapse tests can hold a scatter open
// deterministically.
type gateBackend struct {
	engine.Backend
	mu       sync.Mutex
	started  chan struct{}
	release  chan struct{}
	searches int
}

func newGateBackend(inner engine.Backend) *gateBackend {
	return &gateBackend{Backend: inner, started: make(chan struct{}), release: make(chan struct{})}
}

func (g *gateBackend) Search(ctx context.Context, queries *seq.Set, opts engine.SearchOptions) (*master.Report, error) {
	g.mu.Lock()
	g.searches++
	if g.searches == 1 {
		close(g.started)
	}
	g.mu.Unlock()
	select {
	case <-g.release:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return g.Backend.Search(ctx, queries, opts)
}

func (g *gateBackend) searchCount() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.searches
}

// waitShardStats polls the coordinator's counters until cond holds.
func waitShardStats(t *testing.T, s *Searcher, desc string, cond func(engine.Stats) bool) {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for !cond(s.Stats()) {
		select {
		case <-deadline:
			t.Fatalf("timeout waiting for %s; stats %+v", desc, s.Stats())
		case <-time.After(time.Millisecond):
		}
	}
}

// TestCoordinatorCollapsesConcurrentSearches pins the scatter open via
// a gated backend and piles identical searches behind the leader: all
// of them must share the leader's single scatter, and a canceled
// follower must abandon only itself.
func TestCoordinatorCollapsesConcurrentSearches(t *testing.T) {
	const topK = 3
	db := synth.RandomSet(alphabet.Protein, 20, 10, 100, 2005)
	queries := synth.RandomSet(alphabet.Protein, 3, 20, 60, 2006)
	ranges := RangesFor(db, 2, Contiguous)
	gates := make([]*gateBackend, 2)
	backends := make([]engine.Backend, 2)
	for i, r := range ranges {
		eng, err := engine.New(db.Slice(r.Lo, r.Hi), engine.Config{Pool: master.PoolSpec{CPU: 1}, TopK: topK})
		if err != nil {
			t.Fatal(err)
		}
		gates[i] = newGateBackend(eng)
		backends[i] = gates[i]
	}
	s, err := WithBackends(db, Contiguous, ranges, backends, topK)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.EnableCache(0, 0)

	const followers = 7
	reports := make([]*master.Report, followers+1)
	errs := make([]error, followers+1)
	var wg sync.WaitGroup
	search := func(i int) {
		defer wg.Done()
		reports[i], errs[i] = s.Search(context.Background(), queries, engine.SearchOptions{})
	}
	wg.Add(1)
	go search(0)
	<-gates[0].started // the leader's scatter is in flight and pinned
	for i := 1; i <= followers; i++ {
		wg.Add(1)
		go search(i)
	}
	waitShardStats(t, s, "followers to join", func(st engine.Stats) bool { return st.CollapsedSearches == followers })

	// One more caller with a canceled context: a follower's
	// cancellation abandons only that follower, even mid-collapse.
	ctx, cancel := context.WithCancel(context.Background())
	doomed := make(chan error, 1)
	go func() {
		_, err := s.Search(ctx, queries, engine.SearchOptions{})
		doomed <- err
	}()
	waitShardStats(t, s, "doomed follower to join", func(st engine.Stats) bool { return st.CollapsedSearches == followers+1 })
	cancel()
	select {
	case err := <-doomed:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled follower: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("canceled follower stuck behind the pinned scatter")
	}

	for _, g := range gates {
		close(g.release)
	}
	wg.Wait()
	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
	}
	want := hitBytes(t, reports[0].Results)
	for i := 1; i < len(reports); i++ {
		if !bytes.Equal(hitBytes(t, reports[i].Results), want) {
			t.Fatalf("follower %d hits differ from the leader's", i)
		}
	}
	for si, g := range gates {
		if n := g.searchCount(); n != 1 {
			t.Fatalf("shard %d saw %d scatters for %d collapsed searches, want 1", si, n, followers+2)
		}
	}
	if st := s.Stats(); st.Searches != followers+2 || st.CacheMisses != followers+2 {
		t.Fatalf("coordinator stats after collapse: %+v", st)
	}
}
