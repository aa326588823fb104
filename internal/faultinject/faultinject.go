// Package faultinject is the deterministic chaos harness for every
// fault-tolerance suite in this module: a transparent engine.Backend
// wrapper that injects failures from a scripted schedule instead of
// relying on timing, process kills, or bespoke per-test shims.
//
// A schedule is a list of Rules. Each rule names a backend operation
// (OpSearch, OpStats, …), a trigger window in that operation's own
// call sequence (fire on the After-th call, for Count calls), and a
// Fault: an error to return, extra latency, a hang until cancellation,
// or a Gate that parks the call until the test releases it. Matching
// is purely call-count based, so a test's Nth search fails on every
// run, under -race, at any -count — determinism is the point.
//
// Gates are how tests assert "saturated" or "mid-stream" states
// without sleeping: a gated call announces itself on Gate.Entered()
// before blocking, the test observes the announcement, mutates
// whatever it wants to race against (kills a sibling, changes the
// schedule), then calls Gate.Release(). A parked call still honors its
// context and the wrapper's Close, so no goroutine outlives a test.
//
// An idle wrapper (no rules, or none firing) is a pure pass-through:
// results are the inner backend's, byte for byte. The no-fault
// equivalence suites pin that, which is what makes the wrapper safe to
// leave in a test topology while proving full-coverage behavior.
package faultinject

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"swdual/internal/alphabet"
	"swdual/internal/engine"
	"swdual/internal/master"
	"swdual/internal/seq"
)

// Op names one engine.Backend operation for rule matching.
type Op uint8

const (
	OpSearch Op = iota
	OpStats
	OpChecksum
	OpAlphabet
	opCount
)

// String names the op for test failure messages.
func (o Op) String() string {
	switch o {
	case OpSearch:
		return "Search"
	case OpStats:
		return "Stats"
	case OpChecksum:
		return "Checksum"
	case OpAlphabet:
		return "Alphabet"
	}
	return "unknown"
}

// Gate synchronizes a test with calls parked by a Fault. Every parked
// call sends one token on Entered before blocking, so a test can wait
// for exactly N calls to be provably in flight; Release unparks all
// current and future arrivals at once.
type Gate struct {
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

// NewGate builds a gate that can announce any number of parked calls
// without blocking them.
func NewGate() *Gate {
	return &Gate{entered: make(chan struct{}, 1024), release: make(chan struct{})}
}

// Entered yields one token per call that reached the gate — receive N
// tokens and exactly N calls are parked (or already released).
func (g *Gate) Entered() <-chan struct{} { return g.entered }

// Release unparks every waiting call and lets future arrivals straight
// through. Idempotent.
func (g *Gate) Release() { g.once.Do(func() { close(g.release) }) }

// Fault is what happens to one matched call, applied in order: park at
// the Gate, wait out the Latency, then either return Err, hang until
// the context or wrapper dies (Hang), or proceed into the inner
// backend.
type Fault struct {
	// Err, when non-nil, is returned instead of calling the inner
	// backend. For ops that return no error (Stats, Checksum, …) a
	// zero value stands in for the failure.
	Err error
	// Latency delays the call. Prefer a Gate in tests — latency is for
	// exercising timeout paths where a duration is the scenario itself.
	Latency time.Duration
	// Hang blocks the call until its context is done (Search) or the
	// wrapper is closed, modeling a silent peer.
	Hang bool
	// Gate, when non-nil, parks the call until Gate.Release (announcing
	// itself on Gate.Entered first). Combined with Err, the call fails
	// only when the test says so — a connection dying mid-stream, on
	// cue.
	Gate *Gate
}

// Rule fires Fault on a window of one op's calls: the After-th call
// (1-based; 0 means the first) through After+Count-1 (Count 0 means
// every call from After on). Rules are matched in order; the first hit
// wins.
type Rule struct {
	Op    Op
	After uint64
	Count uint64
	Fault Fault
}

// matches reports whether the rule fires on the seq-th call (1-based).
func (r *Rule) matches(op Op, seq uint64) bool {
	if r.Op != op {
		return false
	}
	first := r.After
	if first == 0 {
		first = 1
	}
	if seq < first {
		return false
	}
	return r.Count == 0 || seq < first+r.Count
}

// Backend wraps an inner engine.Backend with a scripted fault
// schedule. Safe for any number of goroutines; SetRules may be called
// while calls are in flight (in-flight calls keep the schedule they
// matched against).
type Backend struct {
	inner engine.Backend

	mu    sync.Mutex
	rules []Rule
	calls [opCount]uint64

	injected atomic.Uint64

	closed    chan struct{}
	closeOnce sync.Once
}

var _ engine.Backend = (*Backend)(nil)

// Wrap builds the fault-injecting wrapper. With no rules it is a pure
// pass-through.
func Wrap(inner engine.Backend, rules ...Rule) *Backend {
	return &Backend{inner: inner, rules: rules, closed: make(chan struct{})}
}

// SetRules replaces the schedule (and only the schedule: call counters
// keep running, so a rule installed after call 3 with After 4 fires on
// the very next call).
func (b *Backend) SetRules(rules ...Rule) {
	b.mu.Lock()
	b.rules = append([]Rule(nil), rules...)
	b.mu.Unlock()
}

// Injected counts faults actually applied (calls that matched a rule).
func (b *Backend) Injected() uint64 { return b.injected.Load() }

// Calls reports how many times op was invoked on the wrapper.
func (b *Backend) Calls(op Op) uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.calls[op]
}

// match advances op's call counter and returns the fault to apply, if
// any rule fires on this call.
func (b *Backend) match(op Op) (Fault, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.calls[op]++
	seq := b.calls[op]
	for i := range b.rules {
		if b.rules[i].matches(op, seq) {
			return b.rules[i].Fault, true
		}
	}
	return Fault{}, false
}

// apply runs one matched fault to completion. It returns the injected
// error to surface (nil means proceed into the inner backend) — for a
// parked or hanging call, only once the gate released, the context
// died, or the wrapper closed. ctx may be nil for context-free ops.
func (b *Backend) apply(ctx context.Context, f Fault) error {
	b.injected.Add(1)
	var ctxDone <-chan struct{}
	if ctx != nil {
		ctxDone = ctx.Done()
	}
	if f.Gate != nil {
		select {
		case f.Gate.entered <- struct{}{}:
		default: // a test that parks >1024 calls only loses announcements
		}
		select {
		case <-f.Gate.release:
		case <-ctxDone:
			return ctx.Err()
		case <-b.closed:
			return engine.ErrClosed
		}
	}
	if f.Latency > 0 {
		t := time.NewTimer(f.Latency)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctxDone:
			return ctx.Err()
		case <-b.closed:
			return engine.ErrClosed
		}
	}
	if f.Hang {
		select {
		case <-ctxDone:
			return ctx.Err()
		case <-b.closed:
			return engine.ErrClosed
		}
	}
	return f.Err
}

// Search applies the schedule, then delegates.
func (b *Backend) Search(ctx context.Context, queries *seq.Set, opts engine.SearchOptions) (*master.Report, error) {
	if f, ok := b.match(OpSearch); ok {
		if err := b.apply(ctx, f); err != nil {
			return nil, err
		}
	}
	return b.inner.Search(ctx, queries, opts)
}

// Stats applies the schedule (a faulted call reports a zero snapshot —
// the op has no error channel), then delegates.
func (b *Backend) Stats() engine.Stats {
	if f, ok := b.match(OpStats); ok {
		if err := b.apply(context.Background(), f); err != nil {
			return engine.Stats{}
		}
	}
	return b.inner.Stats()
}

// Checksum applies the schedule (a faulted call reports 0), then
// delegates.
func (b *Backend) Checksum() uint32 {
	if f, ok := b.match(OpChecksum); ok {
		if err := b.apply(context.Background(), f); err != nil {
			return 0
		}
	}
	return b.inner.Checksum()
}

// Alphabet applies the schedule (a faulted call reports nil), then
// delegates.
func (b *Backend) Alphabet() *alphabet.Alphabet {
	if f, ok := b.match(OpAlphabet); ok {
		if err := b.apply(context.Background(), f); err != nil {
			return nil
		}
	}
	return b.inner.Alphabet()
}

// Close releases every parked and hanging call (they fail with
// engine.ErrClosed) and closes the inner backend. Idempotent.
func (b *Backend) Close() error {
	b.closeOnce.Do(func() { close(b.closed) })
	return b.inner.Close()
}
