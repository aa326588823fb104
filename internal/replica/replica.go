// Package replica puts N interchangeable backends behind one
// engine.Backend facade, so a database shard keeps answering while its
// servers restart. Every replica serves the identical slice — the
// caller names its checksum, and every replica must match it — which is
// what makes failover safe: a call that fails because its replica's
// connection died is retried on a sibling replica, the dead replica is
// closed, and a background loop re-dials it with capped exponential
// backoff plus jitter until it is healthy again. A replica joins the
// same way at construction and at every redial, so one that cannot be
// reached starts down and a set may start with no live replica. A
// remote replica's dial is its health check: both ends compare the
// slice checksum in the handshake. A search calls one replica at a
// time, on the caller's goroutine.
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
)

// Replica is one member of a Set: a live backend, a way to dial it, or
// both. A nil Backend means NewSet dials the replica through Redial; a
// Backend with a nil Redial (an in-process engine, say) fails over but
// is never revived.
type Replica struct {
	Backend engine.Backend
	Redial  func() (engine.Backend, error)
}

// Config tunes a Set. The zero value selects the default backoff
// bounds.
type Config struct {
	// Index is the shard index the coordinator assigned this set (0 for
	// a standalone set). It is informational: ErrRangeUnavailable
	// carries it so a coordinator can say which range of its partition
	// went dark without parsing the set's name.
	Index int

	// The rest is set only by this package's tests.

	// redialBase and redialMax bound the reconnect backoff (defaults
	// 50ms and 5s): attempt n waits min(redialBase·2ⁿ, redialMax) plus
	// up to half that again in jitter, so a restarting cluster's
	// replicas do not re-dial in lockstep.
	redialBase time.Duration
	redialMax  time.Duration
}

// ErrRangeUnavailable is the typed error Search returns when every
// replica of the set is unavailable: the range itself is dark,
// not just one server. A sharded coordinator detects it with errors.As
// and skips that range: it answers the surviving ranges' hits with a
// Coverage naming the dark one, and fails only when every range is
// dark.
//
// Cause is the last underlying failure pre-formatted into a string, or,
// when every replica was already down, the last refusal of a redialed
// replica (a server that answered with another slice or scoring) —
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
	// already down and reconnecting, and none was refused on redial).
	Cause string
}

func (e *ErrRangeUnavailable) Error() string {
	return fmt.Sprintf("replica %s: %s", e.Range, e.Reason())
}

// Reason is the error without the range's name, for a caller that names
// the range itself (a partial answer's Coverage).
func (e *ErrRangeUnavailable) Reason() string {
	if e.Cause == "" {
		return fmt.Sprintf("all %d replicas down (reconnecting)", e.Replicas)
	}
	return fmt.Sprintf("all %d replicas unavailable: %s", e.Replicas, e.Cause)
}

// RangeUnavailable marks the error for coordinators that detect
// degradable failures through a local interface instead of importing
// this package (the shard coordinator does, to avoid an import cycle
// through remote's tests).
func (e *ErrRangeUnavailable) RangeUnavailable() bool { return true }

func (c *Config) setDefaults() {
	if c.redialBase <= 0 {
		c.redialBase = 50 * time.Millisecond
	}
	if c.redialMax <= 0 {
		c.redialMax = 5 * time.Second
	}
}

// slot is one replica's mutable state: the live backend (nil while
// down), how to revive it, and why its last redial was refused (nil
// unless the replica answered and failed verification, or its Redial
// refused it).
type slot struct {
	mu      sync.Mutex
	backend engine.Backend
	redial  func() (engine.Backend, error)
	refused error
}

// Set is N checksum-proven-identical replicas behind one engine.Backend.
// All methods are safe for any number of goroutines. The Set owns its
// backends: Close closes every live replica and stops the redial loops.
type Set struct {
	name     string
	cfg      Config
	checksum uint32
	alpha    atomic.Pointer[alphabet.Alphabet] // the first admitted replica's

	slots []*slot

	searches   atomic.Uint64
	queries    atomic.Uint64
	failedOver atomic.Uint64
	redials    atomic.Uint64

	closed    chan struct{}
	closeOnce sync.Once
	closeErr  error
	wg        sync.WaitGroup // redial loops in flight
}

var _ engine.Backend = (*Set)(nil)

// NewSet assembles a replica set over the slice whose checksum is
// checksum; name labels errors (a sharded coordinator passes the range,
// e.g. "shard 2 [20,30)"). Every replica joins through admit. One whose
// first attempt fails as down (see failover) starts in its redial loop,
// so a set may start dark, its searches failing with
// ErrRangeUnavailable until a replica joins. Any other failure is a
// refusal and fails construction, live sibling or not. On success the
// Set owns the backends; on error the caller keeps those it gave.
func NewSet(name string, checksum uint32, replicas []Replica, cfg Config) (*Set, error) {
	if len(replicas) == 0 {
		return nil, fmt.Errorf("replica %s: no replicas", name)
	}
	cfg.setDefaults()
	s := &Set{
		name:     name,
		cfg:      cfg,
		checksum: checksum,
		slots:    make([]*slot, len(replicas)),
		closed:   make(chan struct{}),
	}
	for i, r := range replicas {
		if r.Backend == nil && r.Redial == nil {
			return nil, fmt.Errorf("replica %s: replica %d has neither a live backend nor a redial function", name, i)
		}
		s.slots[i] = &slot{redial: r.Redial}
	}
	for i, r := range replicas {
		err := s.admit(i, r.Backend)
		switch {
		case err == nil:
		case failover(err):
			s.startRedial(i) // down: retried as after a crash
		default:
			for j, r := range replicas[:i] {
				if r.Backend != nil {
					s.slots[j].backend = nil // the caller's to close
				}
			}
			s.Close()
			return nil, fmt.Errorf("replica %s: replica %d: %w", name, i, err)
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

// Alphabet returns the slice's alphabet, nil until a replica has
// joined.
func (s *Set) Alphabet() *alphabet.Alphabet { return s.alpha.Load() }

func (s *Set) isClosed() bool {
	select {
	case <-s.closed:
		return true
	default:
		return false
	}
}

// pick returns the lowest-indexed live replica at index from or above.
// Lowest index first keeps routing deterministic: replica 0 is the
// primary while healthy, siblings are failover targets in order.
func (s *Set) pick(from int) (int, engine.Backend, bool) {
	for i := from; i < len(s.slots); i++ {
		sl := s.slots[i]
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
// the dead backend is closed, and the reconnect loop starts. The
// identity check makes markDown idempotent per backend — concurrent
// searches may all report the same corpse, and only the first empties
// the slot and starts a loop — and protects a replacement backend
// installed by a racing redial.
func (s *Set) markDown(idx int, failed engine.Backend) {
	sl := s.slots[idx]
	sl.mu.Lock()
	if sl.backend != failed {
		sl.mu.Unlock()
		return
	}
	sl.backend = nil
	s.startRedial(idx)
	sl.mu.Unlock()
	failed.Close()
}

// startRedial starts idx's reconnect loop unless the replica has no
// Redial or the Set is closing. markDown calls it under the slot's
// lock, which Close takes after closing the Set, so no loop is added
// once Close waits for them.
func (s *Set) startRedial(idx int) {
	if s.slots[idx].redial != nil && !s.isClosed() {
		s.wg.Add(1)
		go s.redialLoop(idx)
	}
}

// redialLoop revives one down replica: capped exponential backoff with
// jitter between admit attempts. It runs until the replica is back or
// the Set closes.
func (s *Set) redialLoop(idx int) {
	defer s.wg.Done()
	backoff := s.cfg.redialBase
	for {
		// Jitter of up to backoff/2 keeps a restarting cluster's
		// replicas from re-dialing in lockstep.
		wait := backoff + time.Duration(rand.Int63n(int64(backoff/2)+1))
		select {
		case <-s.closed:
			return
		case <-time.After(wait):
		}
		err := s.admit(idx, nil)
		if err == nil {
			s.redials.Add(1)
			return
		}
		sl := s.slots[idx]
		sl.mu.Lock()
		sl.refused = nil
		if !failover(err) { // answered, and refused; still down otherwise
			sl.refused = fmt.Errorf("replica %d refused on redial: %w", idx, err)
		}
		sl.mu.Unlock()
		backoff = min(2*backoff, s.cfg.redialMax)
	}
}

// admit is the one way a replica joins rotation, at construction and
// on every redial: b is its live backend, or nil to dial one through
// its Redial; verify guards it; install puts it in the slot. A backend
// admit dialed is closed if it does not join.
func (s *Set) admit(idx int, b engine.Backend) error {
	sl := s.slots[idx]
	dialed := b == nil
	if dialed {
		var err error
		if b, err = sl.redial(); err != nil {
			return err
		}
	}
	err := s.verify(b)
	sl.mu.Lock()
	if err == nil && s.isClosed() {
		err = engine.ErrClosed
	} else if err == nil {
		sl.backend, sl.refused = b, nil
	}
	sl.mu.Unlock()
	if err != nil && dialed {
		b.Close()
	}
	return err
}

// verify guards a backend before it joins: its checksum must be the
// slice's and its alphabet that of the first replica admitted. For a
// remote.Backend both are what the server's Welcome named moments ago,
// on the connection it just answered, so the handshake is the health
// check.
func (s *Set) verify(b engine.Backend) error {
	if got := b.Checksum(); got != s.checksum {
		return fmt.Errorf("database checksum %08x, want %08x (a different slice or database?)", got, s.checksum)
	}
	if a := b.Alphabet(); !s.alpha.CompareAndSwap(nil, a) && s.alpha.Load() != a {
		return fmt.Errorf("alphabet %s, want %s", a.Name(), s.alpha.Load().Name())
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

// Search calls the lowest-indexed live replica on the caller's
// goroutine. When that replica's connection is gone it is marked down
// and the search fails over to the next live replica in index order;
// any other error would fail identically on every replica and is
// returned unchanged. Replicas are checksum-proven identical and the
// merge is deterministic, so whichever replica answers, the hits are
// byte-identical. The search fails with ErrRangeUnavailable only when
// every replica has failed.
func (s *Set) Search(ctx context.Context, queries *seq.Set, opts engine.SearchOptions) (*master.Report, error) {
	if s.isClosed() {
		return nil, engine.ErrClosed
	}
	s.searches.Add(1)
	if queries != nil {
		s.queries.Add(uint64(queries.Len()))
	}
	var lastErr error
	for next := 0; ; {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		idx, b, ok := s.pick(next)
		if !ok {
			break
		}
		next = idx + 1
		rep, err := b.Search(ctx, queries, opts)
		if !failover(err) {
			return rep, err
		}
		s.markDown(idx, b)
		s.failedOver.Add(1)
		lastErr = err
	}
	if s.isClosed() {
		return nil, engine.ErrClosed
	}
	return nil, s.rangeUnavailable(lastErr)
}

// rangeUnavailable builds the typed every-replica-down error for this
// set, flattening lastErr — or, when no search failed just now, the
// lowest-indexed replica's last refusal on redial — into a string (see
// ErrRangeUnavailable.Cause for why it is not wrapped).
func (s *Set) rangeUnavailable(lastErr error) error {
	e := &ErrRangeUnavailable{Range: s.name, Index: s.cfg.Index, Replicas: len(s.slots)}
	for i := 0; lastErr == nil && i < len(s.slots); i++ {
		sl := s.slots[i]
		sl.mu.Lock()
		lastErr = sl.refused
		sl.mu.Unlock()
	}
	if lastErr != nil {
		e.Cause = lastErr.Error()
	}
	return e
}

// Stats describes the slice once (every replica serves the same one,
// so the first live replica's description stands for all; a set with
// every replica down reports zero sequences, as a dead remote backend
// does) and sums the engine counters across live replicas — each
// prepared its own copy and served its own share of the traffic — with
// worker names prefixed r0/, r1/ by slot. The replica-layer counters say
// how often the availability machinery fired: calls failed over, dead
// replicas revived.
func (s *Set) Stats() engine.Stats {
	agg := engine.Stats{
		DBChecksum: s.checksum,
		Searches:   s.searches.Load(),
		Queries:    s.queries.Load(),
		FailedOver: s.failedOver.Load(),
		Redials:    s.redials.Load(),
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
