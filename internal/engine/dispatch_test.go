package engine

import (
	"cmp"
	"context"
	"slices"
	"testing"
	"time"

	"swdual/internal/alphabet"
	"swdual/internal/master"
	"swdual/internal/sched"
	"swdual/internal/seq"
	"swdual/internal/synth"
)

// started is one task entering a stepWorker's Run.
type started struct{ worker, query string }

// stepWorker finishes one task per token: Run announces the task on the
// test's shared events channel and then blocks until the test sends on
// step (or closes it, which lets everything through). The test thereby
// decides which worker frees when, with no sleeps.
type stepWorker struct {
	name   string
	kind   sched.Kind
	rate   float64
	events chan<- started
	step   chan struct{}
}

func (w *stepWorker) Name() string       { return w.name }
func (w *stepWorker) Kind() sched.Kind   { return w.kind }
func (w *stepWorker) RateGCUPS() float64 { return w.rate }
func (w *stepWorker) Run(qi int, q *seq.Sequence, db *seq.Set) master.QueryResult {
	w.events <- started{w.name, q.ID}
	<-w.step
	return master.QueryResult{QueryIndex: qi, QueryID: q.ID, Worker: w.name, Elapsed: time.Nanosecond, Cells: 1}
}

// stepRig is a Searcher over stepWorkers plus the plumbing to drive it.
type stepRig struct {
	t       *testing.T
	s       *Searcher
	workers map[string]*stepWorker
	events  chan started
}

// newStepRig builds a Searcher over one stepWorker per (name, kind,
// rate) triple. Cleanup opens every step gate and closes the Searcher.
func newStepRig(t *testing.T, specs ...stepWorker) *stepRig {
	t.Helper()
	rig := &stepRig{t: t, workers: map[string]*stepWorker{}, events: make(chan started, 64)}
	var workers []master.Worker
	for _, spec := range specs {
		w := &stepWorker{name: spec.name, kind: spec.kind,
			rate: spec.rate, events: rig.events, step: make(chan struct{})}
		rig.workers[w.name] = w
		workers = append(workers, w)
	}
	s, err := New(synth.RandomSet(alphabet.Protein, 10, 10, 50, 71), Config{Workers: workers, TopK: 3})
	if err != nil {
		t.Fatal(err)
	}
	rig.s = s
	t.Cleanup(func() {
		for _, w := range rig.workers {
			close(w.step)
		}
		s.Close()
	})
	return rig
}

// outcome is what one Search call returned.
type outcome struct {
	rep *master.Report
	err error
}

// search starts a Search for one query per id in its own goroutine; query
// i is lens[i] residues long.
func (r *stepRig) search(lens []int, ids ...string) <-chan outcome {
	q := seq.NewSet(alphabet.Protein)
	for i, id := range ids {
		q.AddEncoded(id, "", synth.RandomSet(alphabet.Protein, 1, lens[i], lens[i], int64(lens[i])).Seqs[0].Residues)
	}
	out := make(chan outcome, 1)
	go func() {
		rep, err := r.s.Search(context.Background(), q, SearchOptions{})
		out <- outcome{rep, err}
	}()
	return out
}

// nextStart returns the next task to enter a worker.
func (r *stepRig) nextStart() started {
	r.t.Helper()
	select {
	case ev := <-r.events:
		return ev
	case <-time.After(10 * time.Second):
		r.t.Fatal("no task started: the request is waiting behind a busy worker")
		return started{}
	}
}

// finish lets the named worker complete the task it is pinned in.
func (r *stepRig) finish(worker string) {
	r.t.Helper()
	select {
	case r.workers[worker].step <- struct{}{}:
	case <-time.After(10 * time.Second):
		r.t.Fatalf("worker %s is not pinned in a task", worker)
	}
}

// wait returns a search's outcome, failing the test on an error.
func (r *stepRig) wait(what string, out <-chan outcome) *master.Report {
	r.t.Helper()
	select {
	case o := <-out:
		if o.err != nil {
			r.t.Fatalf("%s: %v", what, o.err)
		}
		return o.rep
	case <-time.After(10 * time.Second):
		r.t.Fatalf("%s did not return", what)
		return nil
	}
}

// noStart asserts that nothing new entered a worker: every request still
// out is waiting on submit, not in a queue.
func (r *stepRig) noStart(why string) {
	r.t.Helper()
	select {
	case ev := <-r.events:
		r.t.Fatalf("%s, yet %s started on %s", why, ev.query, ev.worker)
	default:
	}
}

// TestIdleWorkerTakesNextWave is the any-idle gate itself: request 1, a
// lone query, runs as one chunk on each worker; once worker A finishes
// its chunk, request 2 becomes a wave of its own on A — one idle worker,
// so not split — and returns while B is still pinned in request 1.
// Under an all-idle fence it would have waited on submit.
func TestIdleWorkerTakesNextWave(t *testing.T) {
	rig := newStepRig(t, stepWorker{name: "w0", rate: 1}, stepWorker{name: "w1", rate: 1})
	out1 := rig.search([]int{30}, "r1")
	a, b := rig.nextStart(), rig.nextStart()
	if a.query != "r1" || b.query != "r1" || a.worker == b.worker {
		t.Fatalf("the lone request 1 started as %+v and %+v, want one chunk on each worker", a, b)
	}
	rig.finish(a.worker)
	out2 := rig.search([]int{30}, "r2")
	if c := rig.nextStart(); c != (started{a.worker, "r2"}) {
		t.Fatalf("request 2 started as %+v while %+v is pinned", c, b)
	}
	rig.finish(a.worker)
	rep2 := rig.wait("request 2", out2)
	if got := rep2.Results[0].Worker; got != a.worker {
		t.Fatalf("request 2 reports worker %s, ran on %s", got, a.worker)
	}
	select {
	case o := <-out1:
		t.Fatalf("pinned request 1 returned early: %+v", o)
	default:
	}
	if st := rig.s.Stats(); st.Waves != 2 || st.BatchedWaves != 0 {
		t.Fatalf("want two one-request waves, got %+v", st)
	}
	rig.finish(b.worker)
	res := rig.wait("request 1", out1).Results[0]
	if res.Worker != a.worker+"+"+b.worker && res.Worker != b.worker+"+"+a.worker {
		t.Fatalf("request 1 reports worker %s, its chunks ran on %s and %s", res.Worker, a.worker, b.worker)
	}
	if res.Cells != 2 {
		t.Fatalf("request 1 counts %d cells, its two chunks 1 each", res.Cells)
	}
}

// TestWavePlannedOnIdleSubPlatform pins the pool's GPU-kind worker — by
// its rate the better home of any task — and submits a second request:
// the instance spans only the idle CPU worker, so the request runs there
// instead of queueing behind the GPU.
func TestWavePlannedOnIdleSubPlatform(t *testing.T) {
	rig := newStepRig(t, stepWorker{name: "gpu", kind: sched.GPU, rate: 100}, stepWorker{name: "cpu", kind: sched.CPU, rate: 1})
	out1 := rig.search([]int{30}, "r1")
	if ev := rig.nextStart(); ev.worker != "gpu" {
		t.Fatalf("with both idle the 100x faster GPU must take the task, got %+v", ev)
	}
	out2 := rig.search([]int{30}, "r2")
	if ev := rig.nextStart(); ev != (started{"cpu", "r2"}) {
		t.Fatalf("request 2 started as %+v, want it on the idle CPU worker", ev)
	}
	rig.finish("cpu")
	res := rig.wait("request 2", out2).Results[0]
	if res.Worker != "cpu" {
		t.Fatalf("request 2 ran on %s", res.Worker)
	}
	rig.finish("gpu")
	rig.wait("request 1", out1)
}

// TestBusyPoolCoalescesThenFeedsOneFIFO pins both workers in the two
// chunks of a lone request, queues four more requests — they must wait
// on submit, not in a worker queue — and frees one worker: the four
// coalesce into one wave planned on that one idle worker, and its tasks
// are then pulled in planned start order by whichever worker frees, the
// still-pinned one included once released.
func TestBusyPoolCoalescesThenFeedsOneFIFO(t *testing.T) {
	rig := newStepRig(t, stepWorker{name: "w0", rate: 1}, stepWorker{name: "w1", rate: 1})
	out1 := rig.search([]int{30}, "r1")
	a, b := rig.nextStart(), rig.nextStart()

	// Distinct lengths make a task's planned duration identify it.
	lens := []int{20, 30, 40, 50}
	ids := []string{"q0", "q1", "q2", "q3"}
	outs := make([]<-chan outcome, len(ids))
	for i := range ids {
		outs[i] = rig.search(lens[i:i+1], ids[i])
	}
	waitSearches(t, rig.s, 5)
	time.Sleep(10 * time.Millisecond) // let the callers reach the submit queue
	rig.noStart("both workers are pinned")
	if st := rig.s.Stats(); st.Waves != 1 {
		t.Fatalf("requests behind a busy pool became waves: %+v", st)
	}

	// Free a, then alternate: each finish frees exactly one worker, which
	// pulls exactly one task.
	var order []string
	ran := map[string]int{}
	free := []string{a.worker, b.worker, a.worker, b.worker}
	for _, w := range free {
		rig.finish(w)
		ev := rig.nextStart()
		if ev.worker != w {
			t.Fatalf("%s freed but %s pulled %s", w, ev.worker, ev.query)
		}
		order = append(order, ev.query)
		ran[ev.worker]++
	}
	rig.wait("request 1", out1)
	if ran[a.worker] != 2 || ran[b.worker] != 2 {
		t.Fatalf("the wave's tasks ran %v, want two on each worker", ran)
	}
	rig.finish(a.worker)
	rig.finish(b.worker)
	var reps []*master.Report
	for i, out := range outs {
		reps = append(reps, rig.wait(ids[i], out))
	}
	st := rig.s.Stats()
	if st.BatchedWaves == 0 || st.Waves >= st.Searches {
		t.Fatalf("the queued requests did not coalesce: %+v", st)
	}
	if st.Waves != 2 {
		t.Skipf("a caller reached submit late (%d waves); the FIFO check needs one wave of four", st.Waves)
	}
	// One wave, planned on the single idle worker: placements sorted by
	// duration are q0..q3, and sorted by start they are the queue order.
	sc := reps[0].Schedule
	if len(sc.CPULoads) != 1 || len(sc.Placements) != len(ids) {
		t.Fatalf("wave planned on %d CPUs with %d tasks, want 1 and %d", len(sc.CPULoads), len(sc.Placements), len(ids))
	}
	byLen := slices.Clone(sc.Placements)
	slices.SortFunc(byLen, func(x, y sched.Placement) int { return cmp.Compare(x.End-x.Start, y.End-y.Start) })
	want := slices.Clone(ids)
	slices.SortFunc(want, func(x, y string) int {
		return cmp.Compare(byLen[slices.Index(ids, x)].Start, byLen[slices.Index(ids, y)].Start)
	})
	if !slices.Equal(order, want) {
		t.Fatalf("tasks were pulled %v, planned start order is %v", order, want)
	}
}

// TestCloseWaitsForFedWaves closes the Searcher with two waves in flight
// on two pinned workers — a split lone request with one chunk left, and
// a two-query request with a task still queued in the pool: both must
// complete (never master.ErrPoolClosed), and a third request that was
// never admitted gets ErrClosed while Close is still waiting.
func TestCloseWaitsForFedWaves(t *testing.T) {
	rig := newStepRig(t, stepWorker{name: "w0", rate: 1}, stepWorker{name: "w1", rate: 1})
	out1 := rig.search([]int{30}, "r1")
	a, b := rig.nextStart(), rig.nextStart() // one chunk of r1 each
	rig.finish(a.worker)
	out2 := rig.search([]int{30, 40}, "r2a", "r2b") // one task runs, one waits in the pool queue
	if c := rig.nextStart(); c.worker != a.worker {
		t.Fatalf("request 2 started on %s, pinned in request 1", c.worker)
	}
	out3 := rig.search([]int{30}, "r3")
	waitSearches(t, rig.s, 3)

	closed := make(chan error, 1)
	go func() { closed <- rig.s.Close() }()
	select {
	case o := <-out3:
		if o.err != ErrClosed {
			t.Fatalf("never-admitted request returned %v, want ErrClosed", o.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("never-admitted request stranded by Close")
	}
	select {
	case err := <-closed:
		t.Fatalf("Close returned %v with two waves still in flight", err)
	default:
	}
	rig.finish(b.worker) // request 1's last chunk
	rig.wait("wave 1", out1)
	second := rig.nextStart() // the task that waited in the pool queue
	rig.finish(a.worker)
	rig.finish(second.worker)
	if rep := rig.wait("wave 2", out2); len(rep.Results) != 2 {
		t.Fatalf("wave 2 returned %d results", len(rep.Results))
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
