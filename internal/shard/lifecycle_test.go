package shard

import (
	"context"
	"sync"
	"testing"
	"time"

	"swdual/internal/alphabet"
	"swdual/internal/engine"
	"swdual/internal/enginetest"
	"swdual/internal/master"
	"swdual/internal/sched"
	"swdual/internal/seq"
	"swdual/internal/synth"
)

func testSharded(t *testing.T, dbSize, shards int) *Searcher {
	t.Helper()
	db := synth.RandomSet(alphabet.Protein, dbSize, 10, 100, int64(500+dbSize))
	return localSharded(t, db, shards, engine.Config{Pool: master.PoolSpec{CPU: 1, GPU: 1}, TopK: 3})
}

func TestShardedCloseIdempotentAndConcurrent(t *testing.T) {
	s := testSharded(t, 20, 4)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.Close(); err != nil {
				t.Errorf("close: %v", err)
			}
		}()
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatalf("close after close: %v", err)
	}
	queries := synth.RandomSet(alphabet.Protein, 2, 20, 60, 501)
	if _, err := s.Search(context.Background(), queries, engine.SearchOptions{}); err != engine.ErrClosed {
		t.Fatalf("search after close returned %v, want engine.ErrClosed", err)
	}
}

// TestShardedCloseDoesNotLeakGoroutines reuses the pool leak-check
// pattern: repeatedly building and closing sharded searchers — each
// owning several dispatcher goroutines and worker pools — must return
// the goroutine count to its baseline.
func TestShardedCloseDoesNotLeakGoroutines(t *testing.T) {
	check := enginetest.LeakCheck(t)
	for i := 0; i < 5; i++ {
		s := testSharded(t, 16, 4)
		queries := synth.RandomSet(alphabet.Protein, 2, 20, 60, int64(600+i))
		if _, err := s.Search(context.Background(), queries, engine.SearchOptions{}); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	check()
}

// gateWorker blocks in Run until released, so tests can hold a scatter
// in flight deterministically. One instance may serve several shard
// pools concurrently: Run is safe from any number of goroutines.
type gateWorker struct {
	started chan struct{}
	release chan struct{}
	once    sync.Once
}

func newGateWorker() *gateWorker {
	return &gateWorker{started: make(chan struct{}), release: make(chan struct{})}
}

func (w *gateWorker) Name() string       { return "gate" }
func (w *gateWorker) Kind() sched.Kind   { return sched.CPU }
func (w *gateWorker) RateGCUPS() float64 { return 1 }
func (w *gateWorker) Run(qi int, q *seq.Sequence, db *seq.Set) master.QueryResult {
	w.once.Do(func() { close(w.started) })
	<-w.release
	return master.QueryResult{QueryIndex: qi, QueryID: q.ID, Worker: "gate", Elapsed: time.Nanosecond, Cells: 1}
}

// TestShardedScatterCancellation cancels a Search while the scatter is
// provably in flight (the gate worker pins a task on every shard), and
// checks the call returns the context error promptly, no shard gets
// stuck, and the Searcher stays usable afterwards.
func TestShardedScatterCancellation(t *testing.T) {
	const shards = 3
	db := synth.RandomSet(alphabet.Protein, 12, 10, 60, 700)
	gw := newGateWorker()
	s := localSharded(t, db, shards, engine.Config{
		Workers: []master.Worker{gw}, TopK: 3, Policy: master.PolicySelfScheduling,
	})
	queries := synth.RandomSet(alphabet.Protein, 5, 20, 50, 701)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := s.Search(ctx, queries, engine.SearchOptions{})
		done <- err
	}()
	<-gw.started // at least one shard is pinned mid-wave
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("canceled scatter returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("canceled scatter did not return")
	}

	// Releasing the gate lets the pinned tasks finish and the skipped
	// remainder drain; every shard must come back for the next search.
	close(gw.release)
	rep, err := s.Search(context.Background(), queries, engine.SearchOptions{})
	if err != nil {
		t.Fatalf("search after cancellation: %v", err)
	}
	if len(rep.Results) != queries.Len() {
		t.Fatalf("%d results after cancellation, want %d", len(rep.Results), queries.Len())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedCloseUnblocksInFlightSearch: closing while a scatter waits
// must fail the call with ErrClosed rather than stranding it, matching
// the engine's own Close semantics.
func TestShardedCloseUnblocksInFlightSearch(t *testing.T) {
	gw := newGateWorker()
	db := synth.RandomSet(alphabet.Protein, 8, 10, 60, 702)
	s := localSharded(t, db, 2, engine.Config{
		Workers: []master.Worker{gw}, TopK: 3, Policy: master.PolicySelfScheduling,
	})
	queries := synth.RandomSet(alphabet.Protein, 4, 20, 50, 703)
	done := make(chan error, 1)
	go func() {
		_, err := s.Search(context.Background(), queries, engine.SearchOptions{})
		done <- err
	}()
	<-gw.started
	close(gw.release) // pinned tasks finish; the rest race Close
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("close: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("close hung on in-flight scatter")
	}
	select {
	case err := <-done:
		if err != nil && err != engine.ErrClosed {
			t.Fatalf("in-flight search returned %v, want nil or ErrClosed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight search stranded by Close")
	}
}
