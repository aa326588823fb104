package engine

import (
	"context"
	"testing"
	"time"

	"swdual/internal/alphabet"
	"swdual/internal/seq"
	"swdual/internal/synth"
)

func testQueries(n int, seed int64) *seq.Set {
	return synth.RandomSet(alphabet.Protein, n, 20, 120, seed)
}

// waitFor polls cond until it holds or the deadline passes — a bounded
// convergence loop, not a fixed sleep, so the test is deterministic in
// outcome.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDeadRequestNeverPlanned proves deadline propagation reaches wave
// planning: a request whose context dies after the dispatcher admitted
// it into a forming wave — but before the wave is planned — is failed
// at plan time and its query never reaches a worker. The sequencing is
// fully deterministic: MaxBatch = 2 holds the wave open until a second
// request arrives, and the internal admitted counter tells the test
// exactly when the doomed request is inside the forming batch.
func TestDeadRequestNeverPlanned(t *testing.T) {
	db, _ := testSets(41, 42, 20, 5)
	s, err := New(db, Config{
		CPUs: 1, GPUs: 0, TopK: 3,
		BatchWindow: time.Hour, // the wave closes on MaxBatch, not time
		MaxBatch:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	qa := testQueries(1, 43)
	qb := testQueries(1, 44)

	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	aDone := make(chan error, 1)
	go func() {
		_, err := s.Search(ctxA, qa, SearchOptions{})
		aDone <- err
	}()

	// The dispatcher drained A into the forming wave; with MaxBatch = 2
	// and a one-hour window the wave stays open until B arrives.
	waitFor(t, "request A admitted", func() bool { return s.admittedReqs.Load() == 1 })
	cancelA()
	if err := <-aDone; err != context.Canceled {
		t.Fatalf("canceled request returned %v, want context.Canceled", err)
	}

	// B completes the batch; planWave must drop the dead A and plan a
	// single-request wave around B alone.
	rep, err := s.Search(context.Background(), qb, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 1 || len(rep.Results[0].Hits) == 0 {
		t.Fatalf("live request got no hits: %+v", rep.Results)
	}

	st := s.Stats()
	if st.Waves != 1 {
		t.Fatalf("expected exactly one wave, got %d", st.Waves)
	}
	if st.BatchedWaves != 0 {
		t.Fatalf("filtered wave still counted as batched: %+v", st)
	}
	var tasks uint64
	for _, w := range st.Workers {
		tasks += w.Tasks
	}
	if tasks != 1 {
		t.Fatalf("workers ran %d tasks, want 1 — the doomed query was planned", tasks)
	}
}

// TestAllDeadBatchPlansNoWave cancels the only request of a forming
// wave: planWave filters it and no wave runs at all, leaving the
// dispatcher immediately ready for live traffic.
func TestAllDeadBatchPlansNoWave(t *testing.T) {
	db, _ := testSets(45, 46, 20, 5)
	s, err := New(db, Config{
		CPUs: 1, GPUs: 0, TopK: 3,
		BatchWindow: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := s.Search(ctx, testQueries(1, 47), SearchOptions{})
		done <- err
	}()
	waitFor(t, "request admitted", func() bool { return s.admittedReqs.Load() == 1 })
	cancel()
	if err := <-done; err != context.Canceled {
		t.Fatalf("canceled request returned %v", err)
	}
	// The batch window may or may not have expired before the cancel
	// landed; either the wave was planned with the request filtered out
	// (0 waves) or the cancellation lost the race and the wave ran with
	// its tasks skipped. In both cases the searcher stays healthy.
	if _, err := s.Search(context.Background(), testQueries(1, 48), SearchOptions{}); err != nil {
		t.Fatalf("search after dead batch: %v", err)
	}
}
