package engine

import (
	"context"
	"testing"
	"time"

	"swdual/internal/alphabet"
	"swdual/internal/master"
	"swdual/internal/seq"
	"swdual/internal/synth"
)

func testQueries(n int, seed int64) *seq.Set {
	return synth.RandomSet(alphabet.Protein, n, 20, 120, seed)
}

// deadRequest builds a request whose context is already canceled, for
// tests that hand it to the dispatcher directly: searchWave refuses a
// dead context before submitting, so only a request that dies between
// submit and plan reaches planWave this way.
func deadRequest(n int, seed int64) *request {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	queries := testQueries(n, seed)
	return &request{ctx: ctx, queries: queries, topK: 3, merge: master.NewMerger(queries.Len())}
}

// awaitFailed waits for r's merge to complete and returns its error.
func awaitFailed(t *testing.T, r *request) error {
	t.Helper()
	select {
	case <-r.merge.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("dead request never completed")
	}
	if errp := r.err.Load(); errp != nil {
		return *errp
	}
	return nil
}

func tasksRun(st Stats) (n uint64) {
	for _, w := range st.Workers {
		n += w.Tasks
	}
	return n
}

// TestDeadRequestNeverPlanned proves deadline propagation reaches wave
// planning: a request whose context died after it was submitted is
// failed at plan time, no wave is counted for it and its query never
// reaches a worker. The request goes straight onto the submit channel,
// so the sequencing is deterministic.
func TestDeadRequestNeverPlanned(t *testing.T) {
	db, _ := testSets(41, 42, 20, 5)
	s, err := New(db, Config{Pool: master.PoolSpec{CPU: 1}, TopK: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	dead := deadRequest(1, 43)
	s.submit <- dead
	if err := awaitFailed(t, dead); err != context.Canceled {
		t.Fatalf("dead request failed with %v, want context.Canceled", err)
	}
	if st := s.Stats(); st.Waves != 0 || tasksRun(st) != 0 {
		t.Fatalf("the dead request was planned: %d waves, %d tasks run", st.Waves, tasksRun(st))
	}

	rep, err := s.Search(context.Background(), testQueries(1, 44), SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 1 || len(rep.Results[0].Hits) == 0 {
		t.Fatalf("live request got no hits: %+v", rep.Results)
	}
	if st := s.Stats(); st.Waves != 1 || tasksRun(st) != 1 {
		t.Fatalf("after one live search: %d waves, %d tasks run, want 1 and 1", st.Waves, tasksRun(st))
	}
}

// TestAllDeadBatchPlansNoWave submits several dead requests at once,
// however the dispatcher batches them: every one fails with its context
// error, no wave runs at all, and the dispatcher is immediately ready
// for live traffic.
func TestAllDeadBatchPlansNoWave(t *testing.T) {
	db, _ := testSets(45, 46, 20, 5)
	s, err := New(db, Config{Pool: master.PoolSpec{CPU: 1}, TopK: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	dead := []*request{deadRequest(1, 47), deadRequest(2, 48), deadRequest(1, 49)}
	for _, r := range dead {
		go func() { s.submit <- r }()
	}
	for i, r := range dead {
		if err := awaitFailed(t, r); err != context.Canceled {
			t.Fatalf("dead request %d failed with %v, want context.Canceled", i, err)
		}
	}
	if st := s.Stats(); st.Waves != 0 || st.BatchedWaves != 0 || tasksRun(st) != 0 {
		t.Fatalf("dead requests were planned: %+v", st)
	}
	if _, err := s.Search(context.Background(), testQueries(1, 50), SearchOptions{}); err != nil {
		t.Fatalf("search after dead batch: %v", err)
	}
}
