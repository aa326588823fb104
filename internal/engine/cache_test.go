package engine

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"swdual/internal/master"
)

// waitStats polls the Searcher's counters until cond holds — the
// deterministic alternative to wall-clock sleeps (see pipeline_test.go).
func waitStats(t *testing.T, s *Searcher, desc string, cond func(Stats) bool) {
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

// TestCachedSearchMatchesUncached is the engine-layer equivalence
// proof: with the cache on, repeated and first-time searches return
// hits byte-identical to an uncached Searcher, while the counters show
// the repeats never reached the dispatcher.
func TestCachedSearchMatchesUncached(t *testing.T) {
	db, queries := testSets(21, 22, 50, 8)
	plain, err := New(db, Config{Pool: master.PoolSpec{CPU: 2, GPU: 2}, TopK: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	cached, err := New(db, Config{Pool: master.PoolSpec{CPU: 2, GPU: 2}, TopK: 5, Cache: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cached.Close()
	want, err := plain.Search(context.Background(), queries, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 4
	for round := 0; round < rounds; round++ {
		rep, err := cached.Search(context.Background(), queries, SearchOptions{})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		sameHits(t, "cached round", rep, want)
	}
	st := cached.Stats()
	if st.CacheMisses != 1 || st.CacheHits != rounds-1 {
		t.Fatalf("cache misses/hits %d/%d, want 1/%d", st.CacheMisses, st.CacheHits, rounds-1)
	}
	if st.Waves != 1 {
		t.Fatalf("%d waves for %d identical searches, want 1", st.Waves, rounds)
	}
	if st.Searches != rounds {
		t.Fatalf("searches %d, want %d", st.Searches, rounds)
	}
}

// TestCacheHitReturnsDefensiveCopies mutates a served report's hits and
// checks the cached answer is unharmed.
func TestCacheHitReturnsDefensiveCopies(t *testing.T) {
	db, queries := testSets(23, 24, 40, 6)
	s, err := New(db, Config{Pool: master.PoolSpec{CPU: 2, GPU: 2}, TopK: 5, Cache: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	want, err := s.Search(context.Background(), queries, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pristine := make([][]master.Hit, len(want.Results))
	for i, r := range want.Results {
		pristine[i] = append([]master.Hit(nil), r.Hits...)
	}
	for round := 0; round < 2; round++ {
		rep, err := s.Search(context.Background(), queries, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for qi := range rep.Results {
			for hi := range rep.Results[qi].Hits {
				if rep.Results[qi].Hits[hi] != pristine[qi][hi] {
					t.Fatalf("round %d query %d hit %d changed: %+v vs %+v",
						round, qi, hi, rep.Results[qi].Hits[hi], pristine[qi][hi])
				}
				// Corrupt the served copy; the next hit must be pristine.
				rep.Results[qi].Hits[hi].Score = -999
				rep.Results[qi].Hits[hi].SeqID = "corrupted"
			}
		}
	}
}

// TestCacheTopKInvalidates checks the effective TopK is part of the
// fingerprint: the same queries under a different cap run a fresh wave,
// and each cap's answer replays correctly.
func TestCacheTopKInvalidates(t *testing.T) {
	db, queries := testSets(25, 26, 40, 6)
	s, err := New(db, Config{Pool: master.PoolSpec{CPU: 2, GPU: 2}, TopK: 5, Cache: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	at3, err := s.Search(context.Background(), queries, SearchOptions{TopK: 3})
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Waves != 1 {
		t.Fatalf("waves %d after first search", st.Waves)
	}
	at5, err := s.Search(context.Background(), queries, SearchOptions{TopK: 5})
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Waves != 2 || st.CacheHits != 0 {
		t.Fatalf("different TopK must miss: waves %d, hits %d", st.Waves, st.CacheHits)
	}
	for qi := range at3.Results {
		if len(at3.Results[qi].Hits) > 3 {
			t.Fatalf("query %d: %d hits above cap 3", qi, len(at3.Results[qi].Hits))
		}
	}
	again3, err := s.Search(context.Background(), queries, SearchOptions{TopK: 3})
	if err != nil {
		t.Fatal(err)
	}
	sameHits(t, "TopK 3 replay", again3, at3)
	again5, err := s.Search(context.Background(), queries, SearchOptions{TopK: 5})
	if err != nil {
		t.Fatal(err)
	}
	sameHits(t, "TopK 5 replay", again5, at5)
	if st := s.Stats(); st.Waves != 2 || st.CacheHits != 2 {
		t.Fatalf("replays ran waves: %+v", st)
	}
}

// TestCollapseConcurrentIdenticalSearches pins a wave open with the
// gate worker, piles 7 identical searches behind the leader, and checks
// they all ride the leader's single wave: one wave total, every report
// identical, and the wave's answer cached for the 9th search.
func TestCollapseConcurrentIdenticalSearches(t *testing.T) {
	db, queries := testSets(27, 28, 10, 3)
	gw := newGateWorker("gate-0")
	s, err := New(db, Config{Workers: []master.Worker{gw}, TopK: 3, Cache: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const followers = 7
	reports := make([]*master.Report, followers+1)
	errs := make([]error, followers+1)
	var wg sync.WaitGroup
	search := func(i int) {
		defer wg.Done()
		reports[i], errs[i] = s.Search(context.Background(), queries, SearchOptions{})
	}
	wg.Add(1)
	go search(0)
	<-gw.started // the leader's wave is in flight, worker pinned
	for i := 1; i <= followers; i++ {
		wg.Add(1)
		go search(i)
	}
	// Followers register deterministically: each increments the
	// collapsed counter before blocking on the leader's call.
	waitStats(t, s, "followers to join", func(st Stats) bool { return st.CollapsedSearches == followers })
	close(gw.release)
	wg.Wait()
	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
	}
	for i := 1; i < len(reports); i++ {
		sameHits(t, "follower", reports[i], reports[0])
	}
	st := s.Stats()
	if st.Waves != 1 {
		t.Fatalf("%d waves for %d collapsed searches, want 1", st.Waves, followers+1)
	}
	if st.CacheMisses != followers+1 || st.CacheHits != 0 {
		t.Fatalf("misses/hits %d/%d during collapse", st.CacheMisses, st.CacheHits)
	}
	// The collapsed wave's answer is cached: a later identical search
	// is a pure hit, still one wave ever.
	rep, err := s.Search(context.Background(), queries, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sameHits(t, "post-collapse hit", rep, reports[0])
	if st := s.Stats(); st.Waves != 1 || st.CacheHits != 1 {
		t.Fatalf("post-collapse stats: %+v", st)
	}
}

// TestFollowerCancellationLeavesLeader cancels one follower mid-collapse
// and checks it returns ctx.Err() promptly — while the leader's wave is
// still pinned open — without disturbing the leader or its other
// followers.
func TestFollowerCancellationLeavesLeader(t *testing.T) {
	db, queries := testSets(29, 30, 10, 3)
	gw := newGateWorker("gate-0")
	s, err := New(db, Config{Workers: []master.Worker{gw}, TopK: 3, Cache: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var wg sync.WaitGroup
	var leaderRep, followerRep *master.Report
	var leaderErr, followerErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		leaderRep, leaderErr = s.Search(context.Background(), queries, SearchOptions{})
	}()
	<-gw.started
	ctx, cancel := context.WithCancel(context.Background())
	doomed := make(chan error, 1)
	go func() {
		_, err := s.Search(ctx, queries, SearchOptions{})
		doomed <- err
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		followerRep, followerErr = s.Search(context.Background(), queries, SearchOptions{})
	}()
	waitStats(t, s, "both followers to join", func(st Stats) bool { return st.CollapsedSearches == 2 })
	cancel()
	// The canceled follower must return promptly even though the wave it
	// was waiting on is still pinned open by the gate worker.
	select {
	case err := <-doomed:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled follower returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("canceled follower stuck behind the leader's wave")
	}
	close(gw.release)
	wg.Wait()
	if leaderErr != nil || followerErr != nil {
		t.Fatalf("leader %v, follower %v after a sibling canceled", leaderErr, followerErr)
	}
	sameHits(t, "surviving follower", followerRep, leaderRep)
}

// TestLeaderErrorPropagatesUncached cancels the leader mid-wave: every
// follower sees the leader's error, the error is not cached, and the
// next identical search runs a fresh, successful wave.
func TestLeaderErrorPropagatesUncached(t *testing.T) {
	db, queries := testSets(31, 32, 10, 3)
	gw := newGateWorker("gate-0")
	s, err := New(db, Config{Workers: []master.Worker{gw}, TopK: 3, Cache: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderDone := make(chan error, 1)
	go func() {
		_, err := s.Search(leaderCtx, queries, SearchOptions{})
		leaderDone <- err
	}()
	<-gw.started
	const followers = 3
	followerDone := make(chan error, followers)
	for i := 0; i < followers; i++ {
		go func() {
			_, err := s.Search(context.Background(), queries, SearchOptions{})
			followerDone <- err
		}()
	}
	waitStats(t, s, "followers to join", func(st Stats) bool { return st.CollapsedSearches == followers })
	cancelLeader()
	if err := <-leaderDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader returned %v, want context.Canceled", err)
	}
	for i := 0; i < followers; i++ {
		select {
		case err := <-followerDone:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("follower %d returned %v, want the leader's context.Canceled", i, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("follower %d never saw the leader's error", i)
		}
	}
	// Nothing was cached and the flight retired: the next identical
	// search leads a fresh wave and succeeds (the gate is released, so
	// its tasks run straight through).
	close(gw.release)
	rep, err := s.Search(context.Background(), queries, SearchOptions{})
	if err != nil {
		t.Fatalf("search after leader error: %v", err)
	}
	if len(rep.Results) != queries.Len() {
		t.Fatalf("%d results", len(rep.Results))
	}
	if st := s.Stats(); st.CacheHits != 0 {
		t.Fatalf("a failed wave was served from cache: %+v", st)
	}
}

// TestWarmCacheConcurrentHits warms the cache, then hammers it from 8
// goroutines: every caller must be a pure cache hit with identical
// hits, still one wave ever.
func TestWarmCacheConcurrentHits(t *testing.T) {
	db, queries := testSets(33, 34, 50, 6)
	s, err := New(db, Config{Pool: master.PoolSpec{CPU: 2, GPU: 2}, TopK: 5, Cache: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	want, err := s.Search(context.Background(), queries, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const callers = 8
	reports := make([]*master.Report, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reports[i], errs[i] = s.Search(context.Background(), queries, SearchOptions{})
		}(i)
	}
	wg.Wait()
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		sameHits(t, "warm hit", reports[i], want)
	}
	st := s.Stats()
	if st.CacheHits != callers || st.Waves != 1 {
		t.Fatalf("warm-cache stats: %+v", st)
	}
}

// TestCacheConfigValidation: New refuses a negative cache bound instead
// of defaulting it away.
func TestCacheConfigValidation(t *testing.T) {
	db, _ := testSets(35, 36, 10, 1)
	if _, err := New(db, Config{Cache: true, CacheSize: -1}); err == nil {
		t.Fatal("negative CacheSize accepted")
	}
}
