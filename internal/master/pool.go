package master

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"swdual/internal/sched"
	"swdual/internal/seq"
	"swdual/internal/stats"
)

// Pool is a long-lived set of worker goroutines, one per registered
// Worker, each owning its engine exclusively. Tasks are handed to the
// FIFO of one worker kind (static policies), from which whichever worker
// of that kind frees first pulls — the paper's "next task to the
// least-loaded PE of the class", executed with real times — or to the
// Shared FIFO any idle worker pulls from (self-scheduling). A Pool
// outlives individual requests: the engine layer keeps one Pool per
// loaded database and routes many concurrent searches through it.
//
// The Pool alone knows what a scheduler plans from: which workers run
// nothing (Idle, Freed) and how fast each one really is (Rates,
// Observed). Its FIFOs are slices under one mutex, so Submit never
// blocks; every task it accepts runs, or is skipped by Canceled, and
// reports through Done, even across Close.
type Pool struct {
	workers []Worker
	rates   []*stats.EWMA // per worker: GCUPS, seeded with RateGCUPS
	sem     chan struct{}
	freed   chan struct{}
	wg      sync.WaitGroup

	mu     sync.Mutex
	wake   [2]*sync.Cond // per sched.Kind, on mu
	queues [3][]PoolTask // sched.CPU, sched.GPU, Shared
	size   [2]int        // workers per kind
	free   [2]int        // workers per kind running nothing
	closed bool
}

// Shared indexes the pool's shared queue in Submit, after the two
// sched.Kind queues.
const Shared = 2

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
	// Canceled. Done is called exactly once for every accepted task, after
	// its worker counts as idle again.
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
		rates:   make([]*stats.EWMA, len(workers)),
		sem:     make(chan struct{}, runtime.GOMAXPROCS(0)),
		freed:   make(chan struct{}, 1),
	}
	p.wake = [2]*sync.Cond{sync.NewCond(&p.mu), sync.NewCond(&p.mu)}
	for i, w := range workers {
		p.rates[i] = stats.NewEWMA(w.RateGCUPS())
		p.size[w.Kind()]++
	}
	p.free = p.size
	for i := range workers {
		p.wg.Add(1)
		go p.serve(i)
	}
	return p, nil
}

// Workers returns the registered workers (read-only).
func (p *Pool) Workers() []Worker { return p.workers }

// Size returns the number of worker goroutines.
func (p *Pool) Size() int { return len(p.workers) }

// Rates summarizes the pool the way the scheduling policies see it: pool
// sizes and each kind's mean measured throughput (the advertised rate
// until a worker has completed tasks). Callers scheduling a new wave take
// this snapshot at wave start, so every wave is planned with the
// freshest observed rates.
func (p *Pool) Rates() PoolRates {
	return ratesOf(p.workers, func(i int) float64 {
		rate, _ := p.rates[i].Snapshot()
		return rate
	})
}

// Observed snapshots worker i's measured rate in GCUPS and how many
// completed tasks it folds in (0: the rate is still the advertised one).
func (p *Pool) Observed(i int) (gcups float64, tasks uint64) { return p.rates[i].Snapshot() }

// Idle counts, per kind, the workers that run nothing minus the queued
// tasks that claim them, clamped at 0: a kind's queued tasks claim its
// workers, and Shared tasks claim whichever are left, CPUs first.
func (p *Pool) Idle() (n [2]int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	shared := len(p.queues[Shared])
	for k := range n {
		n[k] = max(0, p.free[k]-len(p.queues[k]))
		claimed := min(n[k], shared)
		n[k] -= claimed
		shared -= claimed
	}
	return n
}

// Freed receives after a worker finishes a task and before that task's
// Done runs, so a caller woken by Done already sees the worker in Idle.
// Sends coalesce: one receive may stand for several freed workers.
func (p *Pool) Freed() <-chan struct{} { return p.freed }

// Submit appends tasks, in order, to one queue: sched.CPU or sched.GPU
// for that kind's workers, Shared for any worker. It never blocks. It
// fails with ErrPoolClosed after Close, and for a kind the pool has no
// worker of, since nothing would ever run the task.
func (p *Pool) Submit(queue int, tasks ...PoolTask) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrPoolClosed
	}
	if queue != Shared && p.size[queue] == 0 {
		p.mu.Unlock()
		return fmt.Errorf("master: the pool has no %v worker", sched.Kind(queue))
	}
	p.queues[queue] = append(p.queues[queue], tasks...)
	p.mu.Unlock()
	// Wake after Unlock, so the woken workers do not queue on the lock.
	for k, cond := range p.wake {
		if queue == k || queue == Shared {
			for range min(len(tasks), p.size[k]) {
				cond.Signal()
			}
		}
	}
	return nil
}

// serve is worker i's loop: pull the next task of its kind, else the
// next shared one, run it, repeat; after Close, exit once both queues
// are empty.
func (p *Pool) serve(i int) {
	defer p.wg.Done()
	k := p.workers[i].Kind()
	p.mu.Lock()
	for {
		q := &p.queues[k]
		if len(*q) == 0 {
			q = &p.queues[Shared]
		}
		if len(*q) == 0 {
			if p.closed {
				p.mu.Unlock()
				return
			}
			p.wake[k].Wait()
			continue
		}
		// Pop by shifting the rest down: a queue is at most a wave long,
		// and its capacity is reused from the front instead of regrown.
		t := (*q)[0]
		n := copy(*q, (*q)[1:])
		(*q)[n] = PoolTask{}
		*q = (*q)[:n]
		p.free[k]--
		p.mu.Unlock()
		p.run(i, t)
		p.mu.Lock()
	}
}

// run executes one task on worker i, folds its measured rate into the
// worker's estimate, frees the worker and only then calls Done.
func (p *Pool) run(i int, t PoolTask) {
	w := p.workers[i]
	res := QueryResult{QueryIndex: t.QueryIndex, Worker: w.Name()}
	ran := t.Canceled == nil || !t.Canceled()
	if ran {
		p.sem <- struct{}{}
		res = w.Run(t.QueryIndex, t.Query, t.DB)
		<-p.sem
		// The observe half of the observe→estimate→schedule loop: every
		// completed task refines the worker's rate before the next wave is
		// planned. Tasks with no volume or no measurable duration carry no
		// rate signal.
		if res.Cells > 0 && res.Elapsed > 0 {
			p.rates[i].Observe(float64(res.Cells) / res.Elapsed.Seconds() / 1e9)
		}
	}
	p.mu.Lock()
	p.free[w.Kind()]++
	p.mu.Unlock()
	select {
	case p.freed <- struct{}{}:
	default:
	}
	t.Done(res, ran)
}

// Close shuts the pool down: Submit fails from now on, every task
// already accepted still runs and reports through Done, and Close
// returns once every worker goroutine has exited. It is idempotent and
// safe to call concurrently.
func (p *Pool) Close() error {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	for _, cond := range p.wake {
		cond.Broadcast()
	}
	p.wg.Wait()
	return nil
}
