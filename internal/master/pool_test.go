package master

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"swdual/internal/alphabet"
	"swdual/internal/enginetest"
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
	check := enginetest.LeakCheck(t)
	for i := 0; i < 5; i++ {
		p := testPool(t, 2, 2)
		p.Close()
	}
	check()
}

func TestPoolSubmitAfterCloseFails(t *testing.T) {
	p := testPool(t, 1, 0)
	never := PoolTask{Done: func(QueryResult, bool) { t.Error("done called") }}
	if err := p.Submit(int(sched.GPU), never); err == nil {
		t.Fatal("a task for a kind the pool has no worker of was accepted")
	}
	p.Close()
	if err := p.Submit(int(sched.CPU), never); err != ErrPoolClosed {
		t.Fatalf("submit after close: %v", err)
	}
	if err := p.Submit(Shared, never); err != ErrPoolClosed {
		t.Fatalf("shared submit after close: %v", err)
	}
}

// TestPoolAcceptedTasksCompleteDespiteClose: Close runs every accepted
// task — the one a worker is on and the ones still queued behind it.
func TestPoolAcceptedTasksCompleteDespiteClose(t *testing.T) {
	p := testPool(t, 1, 0)
	db := synth.RandomSet(alphabet.Protein, 10, 10, 50, 41)
	const tasks = 3
	done := make(chan QueryResult, tasks)
	var batch []PoolTask
	for i := 0; i < tasks; i++ {
		batch = append(batch, PoolTask{
			QueryIndex: i,
			Query:      &db.Seqs[i],
			DB:         db,
			Done:       func(res QueryResult, ran bool) { done <- res },
		})
	}
	if err := p.Submit(int(sched.CPU), batch...); err != nil {
		t.Fatal(err)
	}
	p.Close() // must wait for the accepted tasks, not drop the queued ones
	for i := 0; i < tasks; i++ {
		select {
		case res := <-done:
			if len(res.Hits) == 0 {
				t.Fatalf("accepted task %d produced no hits", res.QueryIndex)
			}
		default:
			t.Fatalf("%d of %d accepted tasks were dropped by Close", tasks-i, tasks)
		}
	}
}

func TestPoolCanceledTaskSkipsCompute(t *testing.T) {
	p := testPool(t, 1, 0)
	defer p.Close()
	db := synth.RandomSet(alphabet.Protein, 10, 10, 50, 42)
	done := make(chan bool, 1)
	err := p.Submit(int(sched.CPU), PoolTask{
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
	name    string
	kind    sched.Kind
	started chan<- int
	step    <-chan struct{}
}

func (w *pinWorker) Name() string       { return w.name }
func (w *pinWorker) Kind() sched.Kind   { return w.kind }
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
		workers = append(workers, &pinWorker{name: name, started: started, step: step})
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
			err := p.Submit(int(sched.CPU), PoolTask{QueryIndex: i, Query: &seqs.Seqs[0], DB: seqs,
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

// pinPool builds a pool of pinWorkers, one per kind given, sharing one
// started channel; step[kind] releases one task of that kind's workers.
func pinPool(t *testing.T, kinds ...sched.Kind) (p *Pool, started chan int, step [2]chan struct{}) {
	t.Helper()
	if len(kinds) > runtime.GOMAXPROCS(0) {
		t.Skipf("%d pinned workers need as many of the pool's GOMAXPROCS compute slots", len(kinds))
	}
	started, step = make(chan int, 16), [2]chan struct{}{make(chan struct{}), make(chan struct{})}
	var workers []Worker
	for i, kind := range kinds {
		workers = append(workers, &pinWorker{name: fmt.Sprintf("w%d", i), kind: kind, started: started, step: step[kind]})
	}
	p, err := NewPool(workers)
	if err != nil {
		t.Fatal(err)
	}
	return p, started, step
}

// nop is a task that reports its completion on done.
func nop(qi int, done chan<- int) PoolTask {
	return PoolTask{QueryIndex: qi, Done: func(res QueryResult, _ bool) { done <- res.QueryIndex }}
}

// TestPoolSubmitDoesNotBlock: Submit only queues, so several tasks for a
// pool whose only worker is pinned are accepted at once.
func TestPoolSubmitDoesNotBlock(t *testing.T) {
	p, started, step := pinPool(t, sched.CPU)
	done := make(chan int, 4)
	if err := p.Submit(int(sched.CPU), nop(0, done)); err != nil {
		t.Fatal(err)
	}
	<-started
	submitted := make(chan error, 1)
	go func() { submitted <- p.Submit(int(sched.CPU), nop(1, done), nop(2, done), nop(3, done)) }()
	select {
	case err := <-submitted:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Submit blocked behind a pinned worker")
	}
	close(step[sched.CPU])
	p.Close()
	if len(done) != 4 {
		t.Fatalf("%d of 4 tasks completed", len(done))
	}
}

// TestPoolIdleCountsClaims: Idle is, per kind, the workers running
// nothing minus the queued tasks claiming them, clamped at 0 — a kind's
// own queue claims its workers, the shared queue whichever are left.
func TestPoolIdleCountsClaims(t *testing.T) {
	p, started, step := pinPool(t, sched.CPU, sched.GPU)
	defer p.Close()
	idle := func(want [2]int, when string) {
		t.Helper()
		if got := p.Idle(); got != want {
			t.Fatalf("%s: Idle %v, want %v", when, got, want)
		}
	}
	idle([2]int{1, 1}, "fresh pool")
	done := make(chan int, 4)
	if err := p.Submit(int(sched.CPU), nop(0, done)); err != nil {
		t.Fatal(err)
	}
	idle([2]int{0, 1}, "one CPU task")
	if err := p.Submit(int(sched.CPU), nop(1, done)); err != nil {
		t.Fatal(err)
	}
	idle([2]int{0, 1}, "two CPU tasks on one CPU")
	<-started
	if err := p.Submit(Shared, nop(2, done), nop(3, done)); err != nil {
		t.Fatal(err)
	}
	idle([2]int{0, 0}, "two shared tasks on one free GPU")
	if got := <-started; got != 2 {
		t.Fatalf("the free GPU started task %d, want shared task 2", got)
	}
	// A freed CPU pulls its own queue first, then the shared one.
	for _, want := range []int{1, 3} {
		step[sched.CPU] <- struct{}{}
		if got := <-started; got != want {
			t.Fatalf("a freed CPU started task %d, want %d", got, want)
		}
		idle([2]int{0, 0}, "every worker running")
	}
	step[sched.CPU] <- struct{}{}
	step[sched.GPU] <- struct{}{}
	for i := 0; i < 4; i++ {
		<-done
	}
	idle([2]int{1, 1}, "every task done")
}

// TestPoolDoneSeesItsWorkerIdle: by the time a task's Done runs, its
// worker counts as idle and Freed has fired, so a caller woken by Done
// finds the pool ready for its next wave.
func TestPoolDoneSeesItsWorkerIdle(t *testing.T) {
	p := testPool(t, 1, 0)
	defer p.Close()
	db := synth.RandomSet(alphabet.Protein, 10, 10, 50, 43)
	type seen struct {
		idle  [2]int
		freed bool
	}
	got := make(chan seen, 1)
	err := p.Submit(int(sched.CPU), PoolTask{Query: &db.Seqs[0], DB: db, Done: func(QueryResult, bool) {
		s := seen{idle: p.Idle()}
		select {
		case <-p.Freed():
			s.freed = true
		default:
		}
		got <- s
	}})
	if err != nil {
		t.Fatal(err)
	}
	if s := <-got; s.idle != [2]int{1, 0} || !s.freed {
		t.Fatalf("Done saw Idle %v, Freed fired %v; want [1 0], true", s.idle, s.freed)
	}
}

// timedWorker reports, for task i, the cells and duration of runs[i]:
// the pool observes exactly the rates the test chooses.
type timedWorker struct {
	name string
	kind sched.Kind
	rate float64
	runs []QueryResult
}

func (w *timedWorker) Name() string       { return w.name }
func (w *timedWorker) Kind() sched.Kind   { return w.kind }
func (w *timedWorker) RateGCUPS() float64 { return w.rate }
func (w *timedWorker) Run(qi int, _ *seq.Sequence, _ *seq.Set) QueryResult {
	res := w.runs[qi]
	res.QueryIndex, res.Worker = qi, w.name
	return res
}

// runEach runs tasks first..last-1 on queue one at a time.
func runEach(t *testing.T, p *Pool, queue, first, last int) {
	t.Helper()
	done := make(chan int, 1)
	for i := first; i < last; i++ {
		if err := p.Submit(queue, nop(i, done)); err != nil {
			t.Fatal(err)
		}
		<-done
	}
}

// TestPoolRateSeedAndObservation: a worker's rate is its advertised one
// until it completes a task, then the pool's estimate of what it did;
// tasks with no cells or no duration carry no rate and are not counted.
func TestPoolRateSeedAndObservation(t *testing.T) {
	w := &timedWorker{name: "gpu", kind: sched.GPU, rate: 24.8, runs: []QueryResult{
		{Cells: 24_800_000_000, Elapsed: time.Second},
		{Cells: 0, Elapsed: time.Second},
		{Cells: 1000},
		{Cells: -5, Elapsed: time.Second},
	}}
	p, err := NewPool([]Worker{w})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if rate, tasks := p.Observed(0); rate != 24.8 || tasks != 0 {
		t.Fatalf("fresh pool observes %.3f GCUPS over %d tasks, want the advertised 24.8 over 0", rate, tasks)
	}
	if r := p.Rates(); r.GPUs != 1 || r.GPURate != 24.8 {
		t.Fatalf("fresh pool rates %+v", r)
	}
	// One task at exactly 24.8 GCUPS keeps the estimate fixed.
	runEach(t, p, int(sched.GPU), 0, 1)
	if rate, tasks := p.Observed(0); math.Abs(rate-24.8) > 1e-9 || tasks != 1 {
		t.Fatalf("after one task at the seed rate: %.6f GCUPS over %d tasks", rate, tasks)
	}
	runEach(t, p, int(sched.GPU), 1, len(w.runs))
	if _, tasks := p.Observed(0); tasks != 1 {
		t.Fatalf("degenerate tasks were counted: %d tasks", tasks)
	}
}

// TestPoolRateConvergesFromMisadvertisedSeed is the convergence
// guarantee the adaptive scheduler rests on: a worker advertising 100×
// its real throughput must see its estimate reach the measured rate
// within a few dozen tasks.
func TestPoolRateConvergesFromMisadvertisedSeed(t *testing.T) {
	const advertised, measured = 100.0, 1.0 // GCUPS; 100× too fast
	const maxTasks = 40
	w := &timedWorker{name: "cpu", kind: sched.CPU, rate: advertised, runs: make([]QueryResult, maxTasks)}
	for i := range w.runs {
		w.runs[i] = QueryResult{Cells: int64(measured * 1e9), Elapsed: time.Second}
	}
	p, err := NewPool([]Worker{w})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for i := 0; i < maxTasks; i++ {
		runEach(t, p, int(sched.CPU), i, i+1)
		if got := p.Rates().CPURate; math.Abs(got-measured) <= 0.05*measured {
			t.Logf("converged to within 5%% of the measured rate after %d tasks", i+1)
			return
		}
	}
	t.Fatalf("estimate still %.3f after %d tasks at %.1f GCUPS (advertised %.1f)",
		p.Rates().CPURate, maxTasks, measured, advertised)
}

// spinWorker busy-computes for d on every task and records when the
// task started, by its QueryIndex.
type spinWorker struct {
	name   string
	d      time.Duration
	starts []time.Time
}

func (w *spinWorker) Name() string       { return w.name }
func (w *spinWorker) Kind() sched.Kind   { return sched.CPU }
func (w *spinWorker) RateGCUPS() float64 { return 1 }
func (w *spinWorker) Run(qi int, _ *seq.Sequence, _ *seq.Set) QueryResult {
	w.starts[qi] = spin(w.d)
	return QueryResult{QueryIndex: qi, Worker: w.name, Cells: 1, Elapsed: w.d}
}

// spin busy-computes for d and returns when it began.
func spin(d time.Duration) time.Time {
	start := time.Now()
	for time.Since(start) < d {
	}
	return start
}

// secondStarts runs rounds while b.Loop says so: sleep for idle, then
// call submit, which hands two tasks to two idle workers and returns
// once both are done. It reports, in µs, the p50 and p90 of how long
// after the submit the later task began, and the share of rounds where
// that passed compute: its worker was the one that ran the first task.
func secondStarts(b *testing.B, idle, compute time.Duration, starts []time.Time, submit func()) {
	var delays []time.Duration
	for b.Loop() {
		time.Sleep(idle)
		t0 := time.Now()
		submit()
		delays = append(delays, max(starts[0].Sub(t0), starts[1].Sub(t0)))
	}
	slices.Sort(delays)
	b.ReportMetric(float64(delays[len(delays)/2].Microseconds()), "p50_us")
	b.ReportMetric(float64(delays[len(delays)*9/10].Microseconds()), "p90_us")
	late, _ := slices.BinarySearch(delays, compute)
	b.ReportMetric(float64(len(delays)-late)/float64(len(delays)), "one_worker_share")
}

// BenchmarkSecondTaskStart times how long the second of two tasks
// submitted together to an idle 2-worker Pool waits to start while the
// first computes 0.6 ms, after the workers sat idle for a while. Both
// should start at once, one per worker; a delay past 0.6 ms means one
// worker ran both. The cond control does the same with two bare
// goroutines waiting on a sync.Cond, nothing of the Pool around them,
// so where the two agree the delay is the Go runtime's and the host's,
// not the Pool's. The idle sleeps overshoot on a coarse timer; ns/op
// shows the whole round.
func BenchmarkSecondTaskStart(b *testing.B) {
	const compute = 600 * time.Microsecond
	for _, idle := range []time.Duration{0, 50 * time.Microsecond, 500 * time.Microsecond, 5 * time.Millisecond} {
		b.Run(fmt.Sprintf("pool/idle=%v", idle), func(b *testing.B) {
			starts := make([]time.Time, 2)
			p, err := NewPool([]Worker{&spinWorker{"cpu-0", compute, starts}, &spinWorker{"cpu-1", compute, starts}})
			if err != nil {
				b.Fatal(err)
			}
			defer p.Close()
			done := make(chan int, 2)
			secondStarts(b, idle, compute, starts, func() {
				if err := p.Submit(int(sched.CPU), nop(0, done), nop(1, done)); err != nil {
					b.Fatal(err)
				}
				<-done
				<-done
			})
		})
		b.Run(fmt.Sprintf("cond/idle=%v", idle), func(b *testing.B) {
			var (
				mu      sync.Mutex
				wake    = sync.NewCond(&mu)
				queued  int
				closed  bool
				starts  = make([]time.Time, 2)
				done    = make(chan struct{}, 2)
				workers sync.WaitGroup
			)
			for range 2 {
				workers.Add(1)
				go func() {
					defer workers.Done()
					mu.Lock()
					for {
						for queued == 0 && !closed {
							wake.Wait()
						}
						if queued == 0 {
							mu.Unlock()
							return
						}
						queued--
						i := queued
						mu.Unlock()
						starts[i] = spin(compute)
						done <- struct{}{}
						mu.Lock()
					}
				}()
			}
			secondStarts(b, idle, compute, starts, func() {
				mu.Lock()
				queued = 2
				mu.Unlock()
				wake.Signal()
				wake.Signal()
				<-done
				<-done
			})
			mu.Lock()
			closed = true
			mu.Unlock()
			wake.Broadcast()
			workers.Wait()
		})
	}
}
