package engine

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"swdual/internal/master"
	"swdual/internal/seq"
	"swdual/internal/sw"
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

// heldWorker scores for real, but its first task waits in Run until
// release is closed, pinning a wave open deterministically.
type heldWorker struct {
	master.Worker
	started chan struct{}
	release chan struct{}
	once    sync.Once
}

func newHeldWorker(topK int) *heldWorker {
	return &heldWorker{
		Worker:  master.BuildPoolWorkers(sw.DefaultParams(), master.PoolSpec{CPU: 1}, topK)[0],
		started: make(chan struct{}),
		release: make(chan struct{}),
	}
}

func (w *heldWorker) Run(qi int, q *seq.Sequence, db *seq.Set) master.QueryResult {
	w.once.Do(func() { close(w.started) })
	<-w.release
	return w.Worker.Run(qi, q, db)
}

// TestFollowerOutlivesLeaderDeadline runs two identical searches while
// the first one's wave is pinned open: the first carries a 50 ms
// deadline, the second none. Each search runs under its own context, so
// the first one's deadline expiring must not fail the second, which
// returns the oracle's hits once the worker is released.
func TestFollowerOutlivesLeaderDeadline(t *testing.T) {
	db, queries := testSets(29, 30, 10, 3)
	w := newHeldWorker(3)
	s, err := New(db, Config{Workers: []master.Worker{w}, TopK: 3, Cache: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	firstCtx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	firstDone := make(chan error, 1)
	go func() {
		_, err := s.Search(firstCtx, queries, SearchOptions{})
		firstDone <- err
	}()
	<-w.started
	type outcome struct {
		rep *master.Report
		err error
	}
	secondDone := make(chan outcome, 1)
	go func() {
		rep, err := s.Search(context.Background(), queries, SearchOptions{})
		secondDone <- outcome{rep, err}
	}()
	waitStats(t, s, "the second search to miss", func(st Stats) bool { return st.CacheMisses == 2 })
	if err := <-firstDone; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("first search returned %v, want context.DeadlineExceeded", err)
	}
	close(w.release)
	select {
	case o := <-secondDone:
		if o.err != nil {
			t.Fatalf("second search failed with the first one's error: %v", o.err)
		}
		sameHits(t, "second search", o.rep, oracle(db, queries, 3))
	case <-time.After(10 * time.Second):
		t.Fatal("second search never returned")
	}
}

// TestFailedSearchIsNeverCached cancels a search mid-wave: the error is
// not cached, and the next identical search runs a fresh, successful
// wave.
func TestFailedSearchIsNeverCached(t *testing.T) {
	db, queries := testSets(31, 32, 10, 3)
	gw := newGateWorker("gate-0")
	s, err := New(db, Config{Workers: []master.Worker{gw}, TopK: 3, Cache: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := s.Search(ctx, queries, SearchOptions{})
		done <- err
	}()
	<-gw.started
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled search returned %v, want context.Canceled", err)
	}
	// Nothing was cached: the next identical search runs a fresh wave
	// and succeeds (the gate is released, so its tasks run straight
	// through).
	close(gw.release)
	rep, err := s.Search(context.Background(), queries, SearchOptions{})
	if err != nil {
		t.Fatalf("search after a failed one: %v", err)
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
