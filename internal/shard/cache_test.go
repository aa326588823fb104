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

	sharded := localSharded(t, db, 3, ecfg)
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
// so shard-level cache tests can hold a scatter open
// deterministically.
type gateBackend struct {
	engine.Backend
	once    sync.Once
	started chan struct{}
	release chan struct{}
}

func newGateBackend(inner engine.Backend) *gateBackend {
	return &gateBackend{Backend: inner, started: make(chan struct{}), release: make(chan struct{})}
}

func (g *gateBackend) Search(ctx context.Context, queries *seq.Set, opts engine.SearchOptions) (*master.Report, error) {
	g.once.Do(func() { close(g.started) })
	select {
	case <-g.release:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return g.Backend.Search(ctx, queries, opts)
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

// TestCoordinatorFollowerOutlivesLeaderCancel is the coordinator twin
// of the engine's TestFollowerOutlivesLeaderDeadline: two identical
// searches wait at the gated ranges, the first caller cancels, and the
// second — running under its own context — must still gather hits
// byte-identical to an unsharded engine once the ranges are released.
func TestCoordinatorFollowerOutlivesLeaderCancel(t *testing.T) {
	const topK = 3
	db := synth.RandomSet(alphabet.Protein, 20, 10, 100, 2005)
	queries := synth.RandomSet(alphabet.Protein, 3, 20, 60, 2006)
	whole, err := engine.New(db, engine.Config{Pool: master.PoolSpec{CPU: 1}, TopK: topK})
	if err != nil {
		t.Fatal(err)
	}
	want := searchHits(t, whole, queries, topK)
	whole.Close()

	ranges := RangesFor(db, 2, BalancedResidues)
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
	s, err := WithBackends(db, BalancedResidues, ranges, backends, topK)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.EnableCache(0, 0)

	ctx, cancel := context.WithCancel(context.Background())
	firstDone := make(chan error, 1)
	go func() {
		_, err := s.Search(ctx, queries, engine.SearchOptions{})
		firstDone <- err
	}()
	<-gates[0].started // the first scatter is pinned
	type outcome struct {
		rep *master.Report
		err error
	}
	secondDone := make(chan outcome, 1)
	go func() {
		rep, err := s.Search(context.Background(), queries, engine.SearchOptions{})
		secondDone <- outcome{rep, err}
	}()
	waitShardStats(t, s, "the second search to miss", func(st engine.Stats) bool { return st.CacheMisses == 2 })
	cancel()
	if err := <-firstDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("first search returned %v, want context.Canceled", err)
	}
	for _, g := range gates {
		close(g.release)
	}
	select {
	case o := <-secondDone:
		if o.err != nil {
			t.Fatalf("second search failed with the first caller's error: %v", o.err)
		}
		if !bytes.Equal(hitBytes(t, o.rep.Results), want) {
			t.Fatal("second search's hits differ from unsharded")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("second search never returned")
	}
	if st := s.Stats(); st.CacheHits != 0 {
		t.Fatalf("a canceled scatter was served from cache: %+v", st)
	}
}
