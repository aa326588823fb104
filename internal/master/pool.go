package master

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"swdual/internal/sched"
	"swdual/internal/seq"
)

// Pool is a long-lived set of worker goroutines, one per registered
// Worker, each owning its engine exclusively. Tasks are handed to the
// FIFO of one worker kind (static policies), from which whichever worker
// of that kind frees first pulls — the paper's "next task to the
// least-loaded PE of the class", executed with real times — or to a
// shared queue any idle worker pulls from (self-scheduling). A Pool
// outlives individual requests: the engine layer keeps one Pool per
// loaded database and routes many concurrent searches through it.
//
// All task channels are unbuffered: a Submit either hands the task to a
// live worker goroutine (which always calls Done) or fails with
// ErrPoolClosed — so no task can be accepted and then dropped, and Close
// cannot leak goroutines or strand callers.
type Pool struct {
	workers []Worker
	kind    [2]chan PoolTask // indexed by sched.Kind
	shared  chan PoolTask
	quit    chan struct{}
	sem     chan struct{}
	wg      sync.WaitGroup
	once    sync.Once
}

// PoolTask is one unit of work routed through a Pool.
type PoolTask struct {
	// QueryIndex is echoed into the result and passed back to Done; it is
	// the caller's index (e.g. position within a request).
	QueryIndex int
	Query      *seq.Sequence
	DB         *seq.Set
	// Canceled, if non-nil, is consulted right before compute; a true
	// return skips the alignment and reports ran=false.
	Canceled func() bool
	// Done receives the result. ran is false when the task was skipped by
	// Canceled. Done is called exactly once for every accepted task.
	Done func(res QueryResult, ran bool)
}

// ErrPoolClosed is returned by Submit after Close.
var ErrPoolClosed = errors.New("master: pool is closed")

// NewPool starts one goroutine per worker. At most GOMAXPROCS of them
// compute at once: a pool larger than the machine queues its surplus
// instead of oversubscribing the CPUs.
func NewPool(workers []Worker) (*Pool, error) {
	if len(workers) == 0 {
		return nil, fmt.Errorf("master: pool needs at least one worker")
	}
	p := &Pool{
		workers: workers,
		kind:    [2]chan PoolTask{make(chan PoolTask), make(chan PoolTask)},
		shared:  make(chan PoolTask),
		quit:    make(chan struct{}),
		sem:     make(chan struct{}, runtime.GOMAXPROCS(0)),
	}
	for _, w := range workers {
		p.wg.Add(1)
		go p.serve(w, p.kind[w.Kind()])
	}
	return p, nil
}

// Workers returns the registered workers (read-only).
func (p *Pool) Workers() []Worker { return p.workers }

// Size returns the number of worker goroutines.
func (p *Pool) Size() int { return len(p.workers) }

// Rates summarizes the pool the way the scheduling policies see it: a
// live snapshot of each worker's measured throughput (the advertised
// rate until the worker has completed tasks). Callers scheduling a new
// wave take this snapshot at wave start, so every wave is planned with
// the freshest observed rates.
func (p *Pool) Rates() PoolRates { return RatesOf(p.workers) }

func (p *Pool) serve(w Worker, queue chan PoolTask) {
	defer p.wg.Done()
	for {
		select {
		case <-p.quit:
			return
		case t := <-queue:
			p.run(w, t)
		case t := <-p.shared:
			p.run(w, t)
		}
	}
}

func (p *Pool) run(w Worker, t PoolTask) {
	if t.Canceled != nil && t.Canceled() {
		t.Done(QueryResult{QueryIndex: t.QueryIndex, Worker: w.Name(), WorkerKind: w.Kind()}, false)
		return
	}
	p.sem <- struct{}{}
	defer func() { <-p.sem }()
	res := w.Run(t.QueryIndex, t.Query, t.DB)
	// The observe half of the observe→estimate→schedule loop: every
	// completed task refines the worker's rate before the next wave is
	// planned. Simulated-device workers observe modeled device time.
	w.ObserveTask(res.Cells, res.ObservedDuration())
	t.Done(res, true)
}

// Submit hands a task to the workers of one kind, blocking until one of
// them accepts it (until Close when the pool has none). Tasks submitted
// to one kind start in submission order.
func (p *Pool) Submit(kind sched.Kind, t PoolTask) error {
	select {
	case p.kind[kind] <- t:
		return nil
	case <-p.quit:
		return ErrPoolClosed
	}
}

// SubmitShared offers a task to whichever worker goes idle first — the
// self-scheduling baseline's dynamic allocation.
func (p *Pool) SubmitShared(t PoolTask) error {
	select {
	case p.shared <- t:
		return nil
	case <-p.quit:
		return ErrPoolClosed
	}
}

// Close shuts the pool down and waits for every worker goroutine to
// exit. It is idempotent and safe to call concurrently; tasks accepted
// before Close still run to completion and report through Done.
func (p *Pool) Close() error {
	p.once.Do(func() { close(p.quit) })
	p.wg.Wait()
	return nil
}
