package engine

import (
	"context"
	"sync"
	"testing"
	"time"

	"swdual/internal/alphabet"
	"swdual/internal/master"
	"swdual/internal/sched"
	"swdual/internal/seq"
	"swdual/internal/sw"
	"swdual/internal/synth"
)

func testSets(dbSeed, qSeed int64, dbN, qN int) (db, queries *seq.Set) {
	db = synth.RandomSet(alphabet.Protein, dbN, 10, 200, dbSeed)
	queries = synth.RandomSet(alphabet.Protein, qN, 20, 120, qSeed)
	return db, queries
}

// oracle is the reference every search is checked against: sw.Score of
// each query against every subject, ranked by master.TopHits.
func oracle(db, queries *seq.Set, topK int) *master.Report {
	return oracleWith(sw.DefaultParams(), db, queries, topK)
}

// oracleWith is oracle under other scoring parameters.
func oracleWith(params sw.Params, db, queries *seq.Set, topK int) *master.Report {
	rep := &master.Report{Results: make([]master.QueryResult, queries.Len())}
	for qi := range queries.Seqs {
		scores := make([]int, db.Len())
		for i := range db.Seqs {
			scores[i] = sw.Score(params, queries.Seqs[qi].Residues, db.Seqs[i].Residues)
		}
		rep.Results[qi].Hits = master.TopHits(db, scores, topK)
	}
	return rep
}

func sameHits(t *testing.T, label string, got, want *master.Report) {
	t.Helper()
	if len(got.Results) != len(want.Results) {
		t.Fatalf("%s: %d results, want %d", label, len(got.Results), len(want.Results))
	}
	for qi := range got.Results {
		a, b := got.Results[qi].Hits, want.Results[qi].Hits
		if len(a) != len(b) {
			t.Fatalf("%s query %d: %d hits vs %d", label, qi, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s query %d hit %d: %+v vs %+v", label, qi, i, a[i], b[i])
			}
		}
	}
}

func TestSearchMatchesOneShot(t *testing.T) {
	db, queries := testSets(1, 2, 50, 10)
	s, err := New(db, Config{Pool: master.PoolSpec{CPU: 2, GPU: 2}, TopK: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rep, err := s.Search(context.Background(), queries, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sameHits(t, "persistent", rep, oracle(db, queries, 5))
	if rep.Schedule == nil {
		t.Fatal("dual-approx wave must carry a schedule")
	}
	if rep.Cells <= 0 || rep.GCUPS <= 0 {
		t.Fatalf("accounting: cells %d gcups %f", rep.Cells, rep.GCUPS)
	}
}

// TestSequentialSearchesSkipPreparation is the amortization guarantee:
// the second Search on the same Searcher must not rebuild the length
// statistics or the workers.
func TestSequentialSearchesSkipPreparation(t *testing.T) {
	db, queries := testSets(3, 4, 40, 8)
	s, err := New(db, Config{Pool: master.PoolSpec{CPU: 1, GPU: 1}, TopK: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	before := s.Stats()
	if before.Prepared != 1 {
		t.Fatalf("prepared %d times before first search, want 1", before.Prepared)
	}
	first, err := s.Search(context.Background(), queries, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.Search(context.Background(), queries, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sameHits(t, "second call", second, first)
	after := s.Stats()
	if after.Prepared != 1 {
		t.Fatalf("database re-prepared: %d passes after two searches", after.Prepared)
	}
	if after.WorkersStarted != before.WorkersStarted || after.WorkersStarted != 2 {
		t.Fatalf("worker pool rebuilt: %d started before, %d after", before.WorkersStarted, after.WorkersStarted)
	}
	if after.Searches != 2 || after.Queries != uint64(2*queries.Len()) {
		t.Fatalf("stats: %+v", after)
	}
}

// TestConcurrentCallers hammers one Searcher from 8 goroutines (run
// under -race) and checks every caller gets exactly the oracle's hits
// for its query set.
func TestConcurrentCallers(t *testing.T) {
	db := synth.RandomSet(alphabet.Protein, 50, 10, 200, 7)
	s, err := New(db, Config{Pool: master.PoolSpec{CPU: 2, GPU: 2}, TopK: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const callers = 8
	var wg sync.WaitGroup
	reports := make([]*master.Report, callers)
	querySets := make([]*seq.Set, callers)
	for i := range querySets {
		querySets[i] = synth.RandomSet(alphabet.Protein, 4, 20, 120, int64(100+i))
	}
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reports[i], errs[i] = s.Search(context.Background(), querySets[i], SearchOptions{})
		}(i)
	}
	wg.Wait()
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		sameHits(t, "caller", reports[i], oracle(db, querySets[i], 5))
	}
	if st := s.Stats(); st.Searches != callers {
		t.Fatalf("stats: %+v", st)
	}
}

// gateWorker blocks in Run until released, letting tests hold a wave
// open deterministically instead of racing wall-clock sleeps.
type gateWorker struct {
	name    string
	started chan struct{} // closed when the first task starts running
	release chan struct{} // Run returns once this is closed
	once    sync.Once
}

func newGateWorker(name string) *gateWorker {
	return &gateWorker{name: name, started: make(chan struct{}), release: make(chan struct{})}
}

func (w *gateWorker) Name() string       { return w.name }
func (w *gateWorker) Kind() sched.Kind   { return sched.CPU }
func (w *gateWorker) RateGCUPS() float64 { return 1 }
func (w *gateWorker) Run(qi int, q *seq.Sequence, db *seq.Set) master.QueryResult {
	w.once.Do(func() { close(w.started) })
	<-w.release
	return master.QueryResult{QueryIndex: qi, QueryID: q.ID, Worker: w.name, Elapsed: time.Nanosecond, Cells: 1}
}

// TestBatchingCoalescesConcurrentRequests pins the single worker inside
// wave 1, queues four more requests behind it, and checks they coalesce
// into a shared wave once the worker is released.
func TestBatchingCoalescesConcurrentRequests(t *testing.T) {
	db := synth.RandomSet(alphabet.Protein, 10, 10, 50, 9)
	gw := newGateWorker("gate-0")
	s, err := New(db, Config{Workers: []master.Worker{gw}, TopK: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var wg sync.WaitGroup
	search := func(i int) {
		defer wg.Done()
		q := synth.RandomSet(alphabet.Protein, 1, 20, 40, int64(200+i))
		if _, err := s.Search(context.Background(), q, SearchOptions{}); err != nil {
			t.Errorf("caller %d: %v", i, err)
		}
	}
	wg.Add(1)
	go search(0)
	<-gw.started // wave 1 is now in flight and the worker pinned
	const queued = 4
	for i := 1; i <= queued; i++ {
		wg.Add(1)
		go search(i)
	}
	// Wait until every caller is past its Search entry, then give each
	// the few instructions left to block on the submit channel, where
	// coalesce drains them without waiting once the worker frees.
	waitSearches(t, s, 1+queued)
	time.Sleep(10 * time.Millisecond)
	close(gw.release)
	wg.Wait()
	st := s.Stats()
	if st.BatchedWaves == 0 {
		t.Fatalf("no wave coalesced multiple requests: %+v", st)
	}
	if st.Waves >= st.Searches {
		t.Fatalf("batching saved no waves: %d waves for %d searches", st.Waves, st.Searches)
	}
}

func TestContextCancellation(t *testing.T) {
	db, queries := testSets(11, 12, 20, 3)
	gw := newGateWorker("gate-0")
	s, err := New(db, Config{Workers: []master.Worker{gw}, TopK: 5, Policy: master.PolicySelfScheduling})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Already-canceled context: no work happens.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Search(ctx, queries, SearchOptions{}); err != context.Canceled {
		t.Fatalf("pre-canceled search returned %v", err)
	}

	// Cancel mid-flight: the gate worker pins the first task, so the
	// search is provably still running when the context dies. Search
	// must return the context error and the Searcher must stay usable.
	ctx, cancel = context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := s.Search(ctx, queries, SearchOptions{})
		done <- err
	}()
	<-gw.started
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("canceled search returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("canceled search did not return")
	}
	close(gw.release) // let the pinned task finish; unstarted ones are skipped
	if _, err := s.Search(context.Background(), queries, SearchOptions{}); err != nil {
		t.Fatalf("search after cancellation: %v", err)
	}
}

// waitSearches spins until the Searcher has counted n Search calls: the
// n-th caller is then past the dead-context check and at (or about to
// reach) the submit select.
func waitSearches(t *testing.T, s *Searcher, n uint64) {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for s.Stats().Searches < n {
		select {
		case <-deadline:
			t.Fatalf("search %d never entered the Searcher", n)
		case <-time.After(time.Millisecond):
		}
	}
}

// TestCancelBehindPinnedWave cancels a request that waits behind a
// still-executing wave (the only worker is busy, so the dispatcher's gate
// is shut and request 2 sits on the submit channel): the caller must get
// its context error promptly and the Searcher must answer the next search.
func TestCancelBehindPinnedWave(t *testing.T) {
	db := synth.RandomSet(alphabet.Protein, 10, 10, 50, 63)
	gw := newGateWorker("gate-0")
	s, err := New(db, Config{Workers: []master.Worker{gw}, TopK: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	done1 := make(chan error, 1)
	go func() {
		q := synth.RandomSet(alphabet.Protein, 1, 20, 40, 400)
		_, err := s.Search(context.Background(), q, SearchOptions{})
		done1 <- err
	}()
	<-gw.started // wave 1 pinned

	ctx, cancel := context.WithCancel(context.Background())
	done2 := make(chan error, 1)
	go func() {
		q := synth.RandomSet(alphabet.Protein, 2, 20, 40, 401)
		_, err := s.Search(ctx, q, SearchOptions{})
		done2 <- err
	}()
	waitSearches(t, s, 2)
	cancel()
	select {
	case err := <-done2:
		if err != context.Canceled {
			t.Fatalf("search canceled behind a pinned wave returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("search canceled behind a pinned wave did not return")
	}
	close(gw.release)
	if err := <-done1; err != nil {
		t.Fatalf("pinned search: %v", err)
	}
	q := synth.RandomSet(alphabet.Protein, 1, 20, 40, 402)
	if _, err := s.Search(context.Background(), q, SearchOptions{}); err != nil {
		t.Fatalf("search after cancellation behind a pinned wave: %v", err)
	}
	if st := s.Stats(); st.Waves != 2 {
		t.Fatalf("the canceled request must never become a wave: %+v", st)
	}
}

// TestCloseWithQueuedRequest closes the Searcher while wave 1 executes
// and a second request is still blocked on submit, never admitted into a
// wave. The dispatched wave must complete (its tasks are queued while the
// pool is up); the unadmitted request must fail with ErrClosed promptly,
// while Close is still waiting for the pinned wave.
func TestCloseWithQueuedRequest(t *testing.T) {
	db := synth.RandomSet(alphabet.Protein, 10, 10, 50, 64)
	gw := newGateWorker("gate-0")
	s, err := New(db, Config{Workers: []master.Worker{gw}, TopK: 3})
	if err != nil {
		t.Fatal(err)
	}

	done1 := make(chan error, 1)
	go func() {
		q := synth.RandomSet(alphabet.Protein, 1, 20, 40, 500)
		_, err := s.Search(context.Background(), q, SearchOptions{})
		done1 <- err
	}()
	<-gw.started

	done2 := make(chan error, 1)
	go func() {
		q := synth.RandomSet(alphabet.Protein, 1, 20, 40, 501)
		_, err := s.Search(context.Background(), q, SearchOptions{})
		done2 <- err
	}()
	waitSearches(t, s, 2)

	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	select {
	case err := <-done2:
		if err != ErrClosed {
			t.Fatalf("unadmitted request returned %v, want ErrClosed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("unadmitted request stranded by Close")
	}
	select {
	case err := <-closed:
		t.Fatalf("Close returned %v while its dispatched wave was still pinned", err)
	default:
	}
	close(gw.release) // let the dispatched wave finish
	select {
	case err := <-done1:
		if err != nil {
			t.Fatalf("dispatched wave failed across Close: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("dispatched wave stranded by Close")
	}
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("close: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("close hung")
	}
}

func TestCloseIdempotentAndFailsNewSearches(t *testing.T) {
	db, queries := testSets(13, 14, 20, 4)
	_, fresh := testSets(13, 15, 20, 2)
	s, err := New(db, Config{Pool: master.PoolSpec{CPU: 1}, Cache: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Search(context.Background(), queries, SearchOptions{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.Close(); err != nil {
			t.Fatalf("close %d: %v", i, err)
		}
	}
	// Neither the cache nor the empty set's shortcut answers after Close.
	for name, q := range map[string]*seq.Set{"cached": queries, "fresh": fresh, "empty": seq.NewSet(db.Alpha)} {
		if _, err := s.Search(context.Background(), q, SearchOptions{}); err != ErrClosed {
			t.Fatalf("%s search after close returned %v, want ErrClosed", name, err)
		}
	}
}

func TestSearchOptionsTopK(t *testing.T) {
	db, queries := testSets(15, 16, 30, 3)
	s, err := New(db, Config{Pool: master.PoolSpec{CPU: 1, GPU: 1}, TopK: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rep, err := s.Search(context.Background(), queries, SearchOptions{TopK: 2})
	if err != nil {
		t.Fatal(err)
	}
	for qi, res := range rep.Results {
		if len(res.Hits) != 2 {
			t.Fatalf("query %d: %d hits, want 2", qi, len(res.Hits))
		}
	}
	// Requests cannot exceed the pool's TopK.
	rep, err = s.Search(context.Background(), queries, SearchOptions{TopK: 99})
	if err != nil {
		t.Fatal(err)
	}
	for qi, res := range rep.Results {
		if len(res.Hits) > 10 {
			t.Fatalf("query %d: %d hits exceed pool TopK", qi, len(res.Hits))
		}
	}
}

func TestEmptyQuerySet(t *testing.T) {
	db, _ := testSets(17, 18, 20, 0)
	s, err := New(db, Config{Pool: master.PoolSpec{CPU: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rep, err := s.Search(context.Background(), seq.NewSet(alphabet.Protein), SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 0 {
		t.Fatalf("%d results for empty query set", len(rep.Results))
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(nil, Config{}); err == nil {
		t.Fatal("nil database must fail")
	}
	db, _ := testSets(19, 20, 10, 0)
	s, err := New(db, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Search(context.Background(), nil, SearchOptions{}); err == nil {
		t.Fatal("nil query set must fail")
	}
	dna := seq.NewSet(alphabet.DNA)
	if _, err := s.Search(context.Background(), dna, SearchOptions{}); err == nil {
		t.Fatal("alphabet mismatch must fail")
	}
}

// TestStatsReportsObservedWorkerRates drives the observe→estimate loop
// end to end: after a search, Stats must carry one rate snapshot per
// worker, with the completed tasks spread across them summing to the
// query count and every observed worker's estimate moved off its seed.
func TestStatsReportsObservedWorkerRates(t *testing.T) {
	db, queries := testSets(23, 24, 40, 8)
	s, err := New(db, Config{Pool: master.PoolSpec{CPU: 1, GPU: 1}, TopK: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	before := s.Stats()
	if len(before.Workers) != 2 {
		t.Fatalf("%d worker rates, want 2", len(before.Workers))
	}
	for _, w := range before.Workers {
		if w.Tasks != 0 || w.ObservedGCUPS != w.AdvertisedGCUPS {
			t.Fatalf("worker %s observed before any search: %+v", w.Name, w)
		}
	}

	if _, err := s.Search(context.Background(), queries, SearchOptions{}); err != nil {
		t.Fatal(err)
	}
	after := s.Stats()
	var tasks uint64
	moved := 0
	for _, w := range after.Workers {
		tasks += w.Tasks
		if w.Tasks > 0 {
			if w.ObservedGCUPS <= 0 {
				t.Fatalf("worker %s ran %d tasks but observes %.3f GCUPS", w.Name, w.Tasks, w.ObservedGCUPS)
			}
			if w.ObservedGCUPS != w.AdvertisedGCUPS {
				moved++
			}
		}
	}
	if tasks != uint64(queries.Len()) {
		t.Fatalf("workers observed %d tasks in total, want %d", tasks, queries.Len())
	}
	if moved == 0 {
		t.Fatal("no worker's observed rate moved off its advertised seed")
	}
}

// TestMixedPoolConfig builds a Searcher from a differently mixed
// PoolSpec and checks the pool shape lands in Stats, the search
// succeeds, and hits match the cpu=2,gpu=2 engine byte for byte — the
// mix changes throughput, never results.
func TestMixedPoolConfig(t *testing.T) {
	db, queries := testSets(25, 26, 35, 6)
	ref, err := New(db, Config{Pool: master.PoolSpec{CPU: 2, GPU: 2}, TopK: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	want, err := ref.Search(context.Background(), queries, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}

	spec := master.PoolSpec{CPU: 3, GPU: 1}
	s, err := New(db, Config{Pool: spec, TopK: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	st := s.Stats()
	if st.WorkersStarted != spec.Total() || len(st.Workers) != spec.Total() {
		t.Fatalf("pool spec %v started %d workers with %d rate entries", spec, st.WorkersStarted, len(st.Workers))
	}
	cpus, gpus := 0, 0
	for _, w := range st.Workers {
		if w.Kind == sched.CPU {
			cpus++
		} else {
			gpus++
		}
	}
	if cpus != spec.CPU || gpus != spec.GPU {
		t.Fatalf("pool kinds %d CPU + %d GPU, want %d + %d", cpus, gpus, spec.CPU, spec.GPU)
	}
	got, err := s.Search(context.Background(), queries, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sameHits(t, "cpu=3,gpu=1 vs cpu=2,gpu=2", got, want)
}
