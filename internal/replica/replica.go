// Package replica puts N interchangeable backends behind one
// engine.Backend facade, so a database shard keeps answering while its
// servers restart. Every replica serves the identical slice — proven by
// the same per-slice checksum guard the sharded coordinator already
// applies — which is what makes the package's two moves safe:
//
//   - Failover: a call that fails because its replica's connection died
//     is retried on a sibling replica, the dead replica is closed, and a
//     background loop re-dials it with capped exponential backoff plus
//     jitter until it is healthy again. A remote replica is back once a
//     fresh dial completes its handshake, in which both ends compare the
//     slice checksum; the Set re-checks it before the replica rejoins.
//
//   - Hedging: a search that runs past a latency threshold — an EWMA of
//     recent replica latencies (stats.EWMA, the average the worker rate
//     estimate also keeps) — issues the same search to a second replica and
//     returns the first answer. Because replicas are checksum-proven
//     identical and the merge is deterministic, every answer is
//     byte-identical, so racing two replicas can only shave latency,
//     never change results.
//
// The facade is the unit the sharded scatter/gather composes over: a
// shard.Searcher built on replica.Sets survives one replica death per
// range, where a scatter over raw backends fails the whole search on
// the first lost connection.
package replica

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"swdual/internal/alphabet"
	"swdual/internal/engine"
	"swdual/internal/master"
	"swdual/internal/remote"
	"swdual/internal/seq"
	"swdual/internal/stats"
)

// Replica is one member of a Set: a live backend, a way to re-create it
// after its connection dies, or both. A nil Backend with a Redial means
// the replica starts down (its server was unreachable at construction)
// and the Set begins re-dialing it immediately; a Backend with a nil
// Redial (an in-process engine, say) fails over but is never revived.
type Replica struct {
	Backend engine.Backend
	Redial  func() (engine.Backend, error)
}

// Config tunes a Set. The zero value enables hedging with the EWMA
// trigger and the default backoff bounds.
type Config struct {
	// HedgeAfter, when positive, hedges any search still unanswered
	// after this fixed delay, overriding the EWMA trigger. Useful when
	// the workload's latency is known (and in tests, where the EWMA
	// has no history to learn from).
	HedgeAfter time.Duration
	// DisableHedge turns hedging off; failover and redial still run.
	DisableHedge bool
	// RedialBase and RedialMax bound the reconnect backoff (defaults
	// 50ms and 5s): attempt n waits min(RedialBase·2ⁿ, RedialMax) plus
	// up to half that again in jitter, so a restarting cluster's
	// replicas do not re-dial in lockstep.
	RedialBase time.Duration
	RedialMax  time.Duration
	// Index is the shard index the coordinator assigned this set (0 for
	// a standalone set). It is informational: ErrRangeUnavailable
	// carries it so a degraded coordinator can say which range of its
	// partition went dark without parsing the set's name.
	Index int
}

// ErrRangeUnavailable is the typed error Search returns when every
// replica of the set is unavailable: the range itself is dark,
// not just one server. A sharded coordinator detects it with errors.As
// to decide between failing the whole search and degrading to partial
// coverage.
//
// Cause is the last underlying failure pre-formatted into a string —
// deliberately not a wrapped error, so an engine.ErrClosed raised by a
// dying replica cannot leak through errors.Is and convince a caller
// that the *coordinator* is closed (the guard the old %v-formatted
// message provided).
type ErrRangeUnavailable struct {
	// Range is the set's label, e.g. "shard 1 [10,20)".
	Range string
	// Index is the coordinator-assigned shard index (Config.Index).
	Index int
	// Replicas is how many replicas the range had, all unavailable.
	Replicas int
	// Cause describes the last failure ("" when every replica was
	// already down and reconnecting, so no fresh error was observed).
	Cause string
}

func (e *ErrRangeUnavailable) Error() string {
	if e.Cause == "" {
		return fmt.Sprintf("replica %s: all %d replicas down (reconnecting)", e.Range, e.Replicas)
	}
	return fmt.Sprintf("replica %s: all %d replicas unavailable: %s", e.Range, e.Replicas, e.Cause)
}

// RangeUnavailable marks the error for coordinators that detect
// degradable failures through a local interface instead of importing
// this package (the shard coordinator does, to avoid an import cycle
// through remote's tests).
func (e *ErrRangeUnavailable) RangeUnavailable() bool { return true }

func (c *Config) setDefaults() {
	if c.RedialBase <= 0 {
		c.RedialBase = 50 * time.Millisecond
	}
	if c.RedialMax <= 0 {
		c.RedialMax = 5 * time.Second
	}
}

const (
	// hedgeFactor scales the EWMA latency into the hedge threshold: a
	// search is hedged once it runs 3× longer than the recent average —
	// past that the replica is an outlier worth racing.
	hedgeFactor = 3
	// minHedgeDelay floors the EWMA trigger so a burst of microsecond
	// cache-warm searches cannot make every subsequent search hedge
	// instantly.
	minHedgeDelay = time.Millisecond
)

// hedgeMinObservations is how many completed searches the latency EWMA
// must absorb before the adaptive trigger arms: hedging off a sample of
// one would race replicas on noise.
const hedgeMinObservations = 8

// slot is one replica's mutable state: the live backend (nil while
// down), how to revive it, and whether a revival is already running.
type slot struct {
	mu        sync.Mutex
	backend   engine.Backend
	redial    func() (engine.Backend, error)
	redialing bool
}

// Set is N checksum-proven-identical replicas behind one engine.Backend.
// All methods are safe for any number of goroutines. The Set owns its
// backends: Close closes every live replica and stops the redial loops.
type Set struct {
	name     string
	cfg      Config
	checksum uint32
	alpha    *alphabet.Alphabet

	slots []*slot
	lat   stats.EWMA // search latency, nanoseconds

	searches   atomic.Uint64
	queries    atomic.Uint64
	hedged     atomic.Uint64
	failedOver atomic.Uint64
	redials    atomic.Uint64

	closed    chan struct{}
	closeOnce sync.Once
	closeErr  error
	wg        sync.WaitGroup // redial loops in flight
}

var _ engine.Backend = (*Set)(nil)

// NewSet assembles a replica set. name labels errors (a sharded
// coordinator passes the range, e.g. "shard 2 [20,30)"). At least one
// replica must be live at construction — it describes the slice — and
// every live replica must agree with it on checksum and alphabet (and
// with wantChecksum when non-zero, the caller's own skew guard).
// Replicas that start down begin re-dialing immediately. On success the
// Set owns the backends; on error the caller keeps ownership.
func NewSet(name string, wantChecksum uint32, replicas []Replica, cfg Config) (*Set, error) {
	if len(replicas) == 0 {
		return nil, fmt.Errorf("replica %s: no replicas", name)
	}
	cfg.setDefaults()
	var ref engine.Backend
	refIdx := -1
	for i, r := range replicas {
		if r.Backend == nil && r.Redial == nil {
			return nil, fmt.Errorf("replica %s: replica %d has neither a live backend nor a redial function", name, i)
		}
		if r.Backend != nil && ref == nil {
			ref, refIdx = r.Backend, i
		}
	}
	if ref == nil {
		return nil, fmt.Errorf("replica %s: all %d replicas unreachable at construction", name, len(replicas))
	}
	checksum := ref.Checksum()
	if wantChecksum != 0 && checksum != wantChecksum {
		return nil, fmt.Errorf("replica %s: replica %d database checksum %08x, want %08x (server loaded a different database?)",
			name, refIdx, checksum, wantChecksum)
	}
	for i, r := range replicas {
		if r.Backend == nil || i == refIdx {
			continue
		}
		if got := r.Backend.Checksum(); got != checksum {
			return nil, fmt.Errorf("replica %s: replica %d database checksum %08x, want %08x — replicas must serve the identical slice",
				name, i, got, checksum)
		}
		if r.Backend.Alphabet() != ref.Alphabet() {
			return nil, fmt.Errorf("replica %s: replica %d alphabet %s, want %s",
				name, i, r.Backend.Alphabet().Name(), ref.Alphabet().Name())
		}
	}
	s := &Set{
		name:     name,
		cfg:      cfg,
		checksum: checksum,
		alpha:    ref.Alphabet(),
		slots:    make([]*slot, len(replicas)),
		closed:   make(chan struct{}),
	}
	for i, r := range replicas {
		s.slots[i] = &slot{backend: r.Backend, redial: r.Redial}
	}
	// Replicas that were unreachable at construction go straight into
	// the reconnect loop instead of waiting for a search to notice.
	for i, sl := range s.slots {
		if sl.backend == nil {
			sl.redialing = true
			s.wg.Add(1)
			go s.redialLoop(i)
		}
	}
	return s, nil
}

// Healthy returns how many replicas are currently live.
func (s *Set) Healthy() int {
	n := 0
	for _, sl := range s.slots {
		sl.mu.Lock()
		if sl.backend != nil {
			n++
		}
		sl.mu.Unlock()
	}
	return n
}

// Checksum fingerprints the slice every replica serves.
func (s *Set) Checksum() uint32 { return s.checksum }

// Alphabet returns the slice's alphabet.
func (s *Set) Alphabet() *alphabet.Alphabet { return s.alpha }

func (s *Set) isClosed() bool {
	select {
	case <-s.closed:
		return true
	default:
		return false
	}
}

// pick returns the lowest-indexed live replica not yet tried. Lowest
// index first keeps routing deterministic: replica 0 is the primary
// while healthy, siblings are failover and hedge targets in order.
func (s *Set) pick(tried []bool) (int, engine.Backend, bool) {
	for i, sl := range s.slots {
		if tried[i] {
			continue
		}
		sl.mu.Lock()
		b := sl.backend
		sl.mu.Unlock()
		if b != nil {
			return i, b, true
		}
	}
	return 0, nil, false
}

// markDown retires a replica whose call just failed: the slot empties,
// the dead backend is closed, and the reconnect loop starts (once). The
// identity check makes markDown idempotent per backend — a hedge arm
// and a failover loop may both report the same corpse — and protects a
// replacement backend installed by a racing redial.
func (s *Set) markDown(idx int, failed engine.Backend) {
	sl := s.slots[idx]
	sl.mu.Lock()
	if sl.backend != failed {
		sl.mu.Unlock()
		return
	}
	sl.backend = nil
	start := sl.redial != nil && !sl.redialing && !s.isClosed()
	if start {
		sl.redialing = true
	}
	sl.mu.Unlock()
	failed.Close()
	if start {
		s.wg.Add(1)
		go s.redialLoop(idx)
	}
}

// redialLoop revives one down replica: capped exponential backoff with
// jitter between attempts and checksum verification on every dial. It
// runs until the replica is back or the Set closes.
func (s *Set) redialLoop(idx int) {
	defer s.wg.Done()
	sl := s.slots[idx]
	backoff := s.cfg.RedialBase
	for {
		// Jitter of up to backoff/2 keeps a restarting cluster's
		// replicas from re-dialing in lockstep.
		wait := backoff + time.Duration(rand.Int63n(int64(backoff/2)+1))
		select {
		case <-s.closed:
			sl.mu.Lock()
			sl.redialing = false
			sl.mu.Unlock()
			return
		case <-time.After(wait):
		}
		if b, err := sl.redial(); err == nil {
			if verr := s.verify(b); verr == nil {
				sl.mu.Lock()
				if s.isClosed() {
					sl.redialing = false
					sl.mu.Unlock()
					b.Close()
					return
				}
				sl.backend = b
				sl.redialing = false
				sl.mu.Unlock()
				s.redials.Add(1)
				return
			}
			b.Close()
		}
		if backoff < s.cfg.RedialMax {
			backoff *= 2
			if backoff > s.cfg.RedialMax {
				backoff = s.cfg.RedialMax
			}
		}
	}
}

// verify guards a re-dialed backend before it rejoins rotation: its
// checksum must match the slice. For a remote.Backend that is the value
// the server's Welcome named moments ago, on the connection it just
// answered, so the handshake is the health check.
func (s *Set) verify(b engine.Backend) error {
	if got := b.Checksum(); got != s.checksum {
		return fmt.Errorf("replica %s: re-dialed backend checksum %08x, want %08x", s.name, got, s.checksum)
	}
	return nil
}

// failover reports whether an error means "this replica is gone, a
// sibling may still answer": a lost connection, a closed backend, or a
// network-level failure. Context errors and logical errors (bad
// queries, alphabet mismatch) would fail identically on every replica
// and pass through instead.
func failover(err error) bool {
	switch {
	case err == nil,
		errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded):
		return false
	case errors.Is(err, remote.ErrConnectionLost),
		errors.Is(err, engine.ErrClosed):
		return true
	}
	var ne net.Error
	return errors.As(err, &ne)
}

// Search routes the query set to the primary replica, fails over to
// siblings on lost connections, and — when the search runs past the
// hedge threshold — races a second replica and returns the first
// answer. Replicas are checksum-proven identical and the merge is
// deterministic, so whichever replica answers, the hits are
// byte-identical. The search fails only when every replica is
// unavailable, with an error naming the set.
func (s *Set) Search(ctx context.Context, queries *seq.Set, opts engine.SearchOptions) (*master.Report, error) {
	if s.isClosed() {
		return nil, engine.ErrClosed
	}
	s.searches.Add(1)
	if queries != nil {
		s.queries.Add(uint64(queries.Len()))
	}
	tried := make([]bool, len(s.slots))
	var lastErr error
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		idx, b, ok := s.pick(tried)
		if !ok {
			break
		}
		tried[idx] = true
		rep, err := s.searchHedged(ctx, idx, b, tried, queries, opts)
		if err == nil {
			return rep, nil
		}
		if !failover(err) {
			return nil, err
		}
		lastErr = err
		s.failedOver.Add(1)
	}
	if s.isClosed() {
		return nil, engine.ErrClosed
	}
	return nil, s.rangeUnavailable(lastErr)
}

// rangeUnavailable builds the typed every-replica-down error for this
// set, flattening lastErr into a string (see ErrRangeUnavailable.Cause
// for why it is not wrapped).
func (s *Set) rangeUnavailable(lastErr error) error {
	e := &ErrRangeUnavailable{Range: s.name, Index: s.cfg.Index, Replicas: len(s.slots)}
	if lastErr != nil {
		e.Cause = lastErr.Error()
	}
	return e
}

// armResult is one replica's answer inside a (possibly hedged) search.
type armResult struct {
	idx int
	b   engine.Backend
	rep *master.Report
	err error
}

// searchHedged runs one search attempt on replica idx, arming the hedge
// timer: if the primary is still unanswered past the threshold, the
// same search goes to the next untried live replica and the first
// answer wins, the loser canceled through the shared arm context. A
// losing arm's backend is only marked down when its error says the
// connection died — slow is not dead.
func (s *Set) searchHedged(ctx context.Context, idx int, b engine.Backend, tried []bool, queries *seq.Set, opts engine.SearchOptions) (*master.Report, error) {
	armCtx, cancelArms := context.WithCancel(ctx)
	defer cancelArms()
	// Buffered to the maximum arm count: a loser's send never blocks,
	// so no goroutine outlives the call.
	results := make(chan armResult, 2)
	run := func(idx int, b engine.Backend) {
		start := time.Now()
		rep, err := b.Search(armCtx, queries, opts)
		if err == nil {
			s.lat.Observe(float64(time.Since(start)))
		}
		results <- armResult{idx: idx, b: b, rep: rep, err: err}
	}
	go run(idx, b)
	inFlight := 1
	var timerC <-chan time.Time
	if delay, ok := s.hedgeDelay(); ok {
		t := time.NewTimer(delay)
		defer t.Stop()
		timerC = t.C
	}
	var firstErr error
	for {
		select {
		case r := <-results:
			inFlight--
			if r.err == nil {
				return r.rep, nil
			}
			if failover(r.err) {
				s.markDown(r.idx, r.b)
				// The primary dying while a hedge is still running is a
				// failover: the hedge arm inherits the search.
				if r.idx == idx && inFlight > 0 {
					s.failedOver.Add(1)
				}
			}
			if firstErr == nil {
				firstErr = r.err
			}
			if inFlight > 0 {
				continue // the other arm may still answer
			}
			return nil, firstErr
		case <-timerC:
			timerC = nil
			if j, hb, ok := s.pick(tried); ok {
				tried[j] = true
				s.hedged.Add(1)
				inFlight++
				go run(j, hb)
			}
		case <-ctx.Done():
			// The buffered channel lets the canceled arms finish and
			// exit on their own; nothing waits on them.
			return nil, ctx.Err()
		}
	}
}

// hedgeDelay returns the current hedge threshold, or false when hedging
// cannot or should not fire (disabled, a single replica, or the EWMA
// has not absorbed enough searches to mean anything).
func (s *Set) hedgeDelay() (time.Duration, bool) {
	if s.cfg.DisableHedge || len(s.slots) < 2 {
		return 0, false
	}
	if s.cfg.HedgeAfter > 0 {
		return s.cfg.HedgeAfter, true
	}
	mean, n := s.lat.Snapshot()
	if n < hedgeMinObservations {
		return 0, false
	}
	d := time.Duration(hedgeFactor * mean)
	if d < minHedgeDelay {
		d = minHedgeDelay
	}
	return d, true
}

// Stats describes the slice once (every replica serves the same one,
// so the first live replica's description stands for all; a set with
// every replica down reports zero sequences, as a dead remote backend
// does) and sums the engine counters across live replicas — each
// prepared its own copy and served its own share of the traffic — with
// worker names prefixed r0/, r1/ by slot. The replica-layer counters say
// how often the availability machinery fired: searches hedged, calls
// failed over, dead replicas revived.
func (s *Set) Stats() engine.Stats {
	agg := engine.Stats{
		DBChecksum:     s.checksum,
		Searches:       s.searches.Load(),
		Queries:        s.queries.Load(),
		HedgedSearches: s.hedged.Load(),
		FailedOver:     s.failedOver.Load(),
		Redials:        s.redials.Load(),
	}
	for i, sl := range s.slots {
		sl.mu.Lock()
		b := sl.backend
		sl.mu.Unlock()
		if b == nil {
			continue
		}
		st := b.Stats()
		if agg.DBSequences == 0 {
			agg.DBSequences, agg.DBResidues = st.DBSequences, st.DBResidues
		}
		agg.Add(st, fmt.Sprintf("r%d/", i))
	}
	return agg
}

// Close closes every live replica and stops the reconnect loops. It is
// idempotent and safe for concurrent use; the first error wins. Calls
// after Close fail with engine.ErrClosed.
func (s *Set) Close() error {
	s.closeOnce.Do(func() {
		close(s.closed)
		for _, sl := range s.slots {
			sl.mu.Lock()
			b := sl.backend
			sl.backend = nil
			sl.mu.Unlock()
			if b != nil {
				if err := b.Close(); err != nil && s.closeErr == nil {
					s.closeErr = err
				}
			}
		}
		s.wg.Wait()
	})
	return s.closeErr
}
