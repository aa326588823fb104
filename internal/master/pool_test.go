package master

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"swdual/internal/alphabet"
	"swdual/internal/sched"
	"swdual/internal/seq"
	"swdual/internal/sw"
	"swdual/internal/synth"
)

func testPool(t *testing.T, cpus, gpus int) *Pool {
	t.Helper()
	p, err := NewPool(BuildPoolWorkers(sw.DefaultParams(), PoolSpec{CPU: cpus, GPU: gpus}, 5))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPoolCloseIdempotent(t *testing.T) {
	p := testPool(t, 2, 1)
	var wg sync.WaitGroup
	// Concurrent closes from several goroutines must all return cleanly.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := p.Close(); err != nil {
				t.Errorf("close: %v", err)
			}
		}()
	}
	wg.Wait()
	if err := p.Close(); err != nil {
		t.Fatalf("close after close: %v", err)
	}
}

func TestPoolCloseDoesNotLeakGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		p := testPool(t, 2, 2)
		p.Close()
	}
	// Give exited goroutines a moment to be reaped.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}

func TestPoolSubmitAfterCloseFails(t *testing.T) {
	p := testPool(t, 1, 0)
	p.Close()
	err := p.Submit(sched.CPU, PoolTask{Done: func(QueryResult, bool) { t.Error("done called") }})
	if err != ErrPoolClosed {
		t.Fatalf("submit after close: %v", err)
	}
	if err := p.SubmitShared(PoolTask{Done: func(QueryResult, bool) { t.Error("done called") }}); err != ErrPoolClosed {
		t.Fatalf("shared submit after close: %v", err)
	}
}

func TestPoolAcceptedTasksCompleteDespiteClose(t *testing.T) {
	p := testPool(t, 1, 0)
	db := synth.RandomSet(alphabet.Protein, 10, 10, 50, 41)
	done := make(chan QueryResult, 1)
	err := p.Submit(sched.CPU, PoolTask{
		QueryIndex: 0,
		Query:      &db.Seqs[0],
		DB:         db,
		Done:       func(res QueryResult, ran bool) { done <- res },
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Close() // must wait for the accepted task, not drop it
	select {
	case res := <-done:
		if len(res.Hits) == 0 {
			t.Fatal("accepted task produced no hits")
		}
	default:
		t.Fatal("accepted task was dropped by Close")
	}
}

func TestPoolCanceledTaskSkipsCompute(t *testing.T) {
	p := testPool(t, 1, 0)
	defer p.Close()
	db := synth.RandomSet(alphabet.Protein, 10, 10, 50, 42)
	done := make(chan bool, 1)
	err := p.Submit(sched.CPU, PoolTask{
		QueryIndex: 0,
		Query:      &db.Seqs[0],
		DB:         db,
		Canceled:   func() bool { return true },
		Done:       func(res QueryResult, ran bool) { done <- ran },
	})
	if err != nil {
		t.Fatal(err)
	}
	if ran := <-done; ran {
		t.Fatal("canceled task still computed")
	}
}

// pinWorker announces each task it starts and holds it until the test
// sends on step.
type pinWorker struct {
	*RateEstimator
	name    string
	started chan<- int
	step    <-chan struct{}
}

func (w *pinWorker) Name() string       { return w.name }
func (w *pinWorker) Kind() sched.Kind   { return sched.CPU }
func (w *pinWorker) RateGCUPS() float64 { return 1 }
func (w *pinWorker) Run(qi int, _ *seq.Sequence, _ *seq.Set) QueryResult {
	w.started <- qi
	<-w.step
	return QueryResult{QueryIndex: qi, Worker: w.name}
}

// TestPoolKindQueueIsFIFO: tasks submitted to a kind start in submission
// order on whichever of its workers frees first — the first two on the
// two idle workers in either order, every later one exactly when a
// worker is released, whichever that is — and all of them, accepted
// before Close, complete despite it.
func TestPoolKindQueueIsFIFO(t *testing.T) {
	const tasks = 7
	started, step := make(chan int, tasks), make(chan struct{})
	var workers []Worker
	for _, name := range []string{"a", "b"} {
		workers = append(workers, &pinWorker{RateEstimator: NewRateEstimator(1), name: name, started: started, step: step})
	}
	p, err := NewPool(workers)
	if err != nil {
		t.Fatal(err)
	}
	seqs := synth.RandomSet(alphabet.Protein, 1, 10, 10, 48)
	ranOn := make(chan string, tasks)
	submitted := make(chan error, 1)
	go func() {
		for i := 0; i < tasks; i++ {
			err := p.Submit(sched.CPU, PoolTask{QueryIndex: i, Query: &seqs.Seqs[0], DB: seqs,
				Done: func(res QueryResult, _ bool) { ranOn <- res.Worker }})
			if err != nil {
				submitted <- err
				return
			}
		}
		submitted <- nil
	}()
	if first, second := <-started, <-started; first+second != 1 {
		t.Fatalf("the two idle workers started tasks %d and %d, want 0 and 1", first, second)
	}
	for want := 2; want < tasks; want++ {
		step <- struct{}{} // whichever pinned worker takes it frees and pulls
		if got := <-started; got != want {
			t.Fatalf("task %d started when task %d was next in the queue", got, want)
		}
	}
	if err := <-submitted; err != nil {
		t.Fatal(err)
	}
	closed := make(chan struct{})
	go func() { p.Close(); close(closed) }()
	step <- struct{}{}
	step <- struct{}{}
	<-closed
	byWorker := map[string]int{}
	for i := 0; i < tasks; i++ {
		byWorker[<-ranOn]++
	}
	if byWorker["a"]+byWorker["b"] != tasks {
		t.Fatalf("accepted tasks completed %v, want %d in all", byWorker, tasks)
	}
}
