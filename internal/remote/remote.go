// Package remote is the wire protocol's client, the coordinator's side
// of a cluster. A Backend dials an engine.Serve endpoint, opens the
// multiplexed session (request ids, so any number of calls are in
// flight on one connection), and implements the same engine.Backend
// interface the in-process Searcher does — so the sharded
// scatter/gather facade cannot tell a local shard from one living
// across the network. Clients that are not a coordinator search through
// the HTTP gateway. This is the transport swap the paper's §IV
// master-slave model was built for: MUSIC runs the same hybrid alignment
// environment distributed over a cluster, and Nguyen & Lavenier's
// fine-grained search engine partitions the bank across networked nodes
// the same way.
package remote

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"swdual/internal/alphabet"
	"swdual/internal/engine"
	"swdual/internal/master"
	"swdual/internal/sched"
	"swdual/internal/seq"
	"swdual/internal/wire"
)

// Backend is a client for one engine.Serve endpoint. It is safe for any
// number of goroutines; concurrent Search calls multiplex over the one
// connection and the server coalesces them into shared scheduling waves.
// A Backend must be Closed to release the connection. Once the
// connection is lost every call — in flight or future — fails with a
// descriptive error; the Backend does not reconnect.
type Backend struct {
	addr string
	nc   net.Conn
	c    *wire.Conn
	wmu  sync.Mutex // guards c.Send

	// Database description from the server's Welcome, immutable
	// afterwards.
	alpha    *alphabet.Alphabet
	checksum uint32
	topK     int

	nextID  atomic.Uint64
	mu      sync.Mutex
	pending map[uint64]chan any // nil once the connection is down
	readErr error               // set before readDone closes

	readDone  chan struct{}
	closeOnce sync.Once
	closeErr  error
}

var _ engine.Backend = (*Backend)(nil)

// rpcTimeout bounds Stats, the interface call that carries no caller
// context: a wedged server whose TCP connection stays open must not
// block a coordinator forever. Generous — a snapshot is subsecond work;
// only a stalled peer ever gets near it.
const rpcTimeout = 30 * time.Second

// DefaultDialTimeout is the bound DialTimeout puts on the TCP connect
// plus the Hello/Welcome handshake when given none. A blackholed
// endpoint, or one that accepts the connection and then never speaks,
// must fail the dial instead of hanging coordinator construction.
const DefaultDialTimeout = 10 * time.Second

// ErrConnectionLost marks every failure caused by the connection to the
// shard server going away — the read loop dying, a send on a closed
// socket, a call finding the session already down. Failover layers
// (internal/replica) match it with errors.Is to distinguish "this
// replica is gone, try another" from errors that would fail identically
// on every replica (bad queries, alphabet mismatch, cancellation).
var ErrConnectionLost = errors.New("connection lost")

// DialTimeout connects to an engine.Serve endpoint; the server's Welcome
// describes its database (checksum, alphabet) and its TopK cap. A
// non-zero wantChecksum is the skew guard: both ends verify it against
// the server's database and the dial fails on mismatch, so a coordinator
// never scatters queries to a shard holding different sequences.
// timeout bounds the TCP connect and the handshake together (<= 0
// selects DefaultDialTimeout). The bound exists for the server that is
// reachable but wedged: a listener that accepts and never completes the
// handshake would otherwise hang the caller forever.
func DialTimeout(addr string, wantChecksum uint32, timeout time.Duration) (*Backend, error) {
	if timeout <= 0 {
		timeout = DefaultDialTimeout
	}
	deadline := time.Now().Add(timeout)
	d := net.Dialer{Deadline: deadline}
	nc, err := d.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("remote %s: %w", addr, err)
	}
	b, err := newBackend(addr, nc, wantChecksum, deadline)
	if err != nil {
		nc.Close()
		return nil, err
	}
	return b, nil
}

// newBackend runs the one-round-trip handshake under the dial deadline,
// then clears the deadline and starts the read loop.
func newBackend(addr string, nc net.Conn, wantChecksum uint32, deadline time.Time) (*Backend, error) {
	b := &Backend{
		addr:     addr,
		nc:       nc,
		c:        wire.NewConn(nc),
		pending:  map[uint64]chan any{},
		readDone: make(chan struct{}),
	}
	// The dial deadline covers the handshake: the Send and Recv below
	// fail once it passes, so a server that accepted the connection and
	// went mute cannot wedge the caller.
	if !deadline.IsZero() {
		if err := nc.SetDeadline(deadline); err != nil {
			return nil, fmt.Errorf("remote %s: %w", addr, err)
		}
	}
	if err := b.c.Send(&wire.Hello{Version: wire.Version, Name: "remote", DBChecksum: wantChecksum}); err != nil {
		return nil, fmt.Errorf("remote %s: %w", addr, err)
	}
	msg, err := b.c.Recv()
	if err != nil {
		return nil, fmt.Errorf("remote %s: %w", addr, err)
	}
	switch m := msg.(type) {
	case *wire.Welcome:
		if wantChecksum != 0 && m.DBChecksum != wantChecksum {
			return nil, fmt.Errorf("remote %s: server database checksum %08x, want %08x", addr, m.DBChecksum, wantChecksum)
		}
		if b.alpha, err = alphabetByName(m.Alphabet); err != nil {
			return nil, fmt.Errorf("remote %s: %w", addr, err)
		}
		b.checksum = m.DBChecksum
		b.topK = int(m.TopK)
	case *wire.ErrorMsg:
		return nil, fmt.Errorf("remote %s: server: %s", addr, m.Text)
	default:
		return nil, fmt.Errorf("remote %s: expected Welcome, got %T", addr, msg)
	}
	// Clear the deadline before the read loop starts: a session lives
	// arbitrarily long, and per-call bounds come from caller contexts.
	if err := nc.SetDeadline(time.Time{}); err != nil {
		return nil, fmt.Errorf("remote %s: %w", addr, err)
	}
	go b.read()
	return b, nil
}

func alphabetByName(name string) (*alphabet.Alphabet, error) {
	for _, a := range []*alphabet.Alphabet{alphabet.Protein, alphabet.DNA, alphabet.RNA} {
		if a.Name() == name {
			return a, nil
		}
	}
	return nil, fmt.Errorf("unknown server alphabet %q", name)
}

// Alphabet returns the server database's alphabet.
func (b *Backend) Alphabet() *alphabet.Alphabet { return b.alpha }

// Checksum fingerprints the server's database — the value verified
// against the coordinator's local slice at dial, cached so the sharding
// facade's skew guard needs no round trip.
func (b *Backend) Checksum() uint32 { return b.checksum }

// TopK returns the server's hits-per-query cap, as its Welcome named it:
// a SearchRequest asking for more gets this many. 0 means the server did
// not say.
func (b *Backend) TopK() int { return b.topK }

// read is the connection's single reader: it routes every response frame
// to the call that registered its id. Responses for retired ids (the
// caller gave up after cancellation) are discarded. On any connection
// error the loop records it and wakes every waiter.
func (b *Backend) read() {
	for {
		msg, err := b.c.Recv()
		if err != nil {
			b.down(fmt.Errorf("remote %s: %w: %v", b.addr, ErrConnectionLost, err))
			return
		}
		id, ok := responseID(msg)
		if !ok {
			if em, isErr := msg.(*wire.ErrorMsg); isErr {
				b.down(fmt.Errorf("remote %s: server: %s", b.addr, em.Text))
			} else {
				b.down(fmt.Errorf("remote %s: unexpected %T", b.addr, msg))
			}
			return
		}
		b.mu.Lock()
		ch := b.pending[id]
		delete(b.pending, id)
		b.mu.Unlock()
		if ch != nil {
			ch <- msg
		}
	}
}

// responseID extracts the request id of a response frame.
func responseID(msg any) (uint64, bool) {
	switch m := msg.(type) {
	case *wire.SearchResult:
		return m.ID, true
	case *wire.ReqError:
		return m.ID, true
	case *wire.StatsResponse:
		return m.ID, true
	}
	return 0, false
}

// down marks the connection dead: no new calls register, every waiter
// wakes with the recorded error.
func (b *Backend) down(err error) {
	b.mu.Lock()
	if b.readErr == nil {
		b.readErr = err
	}
	b.pending = nil
	b.mu.Unlock()
	close(b.readDone)
}

// lostErr reports why the connection is unusable. The error always
// matches ErrConnectionLost: down() wraps the sentinel into readErr,
// and a session torn down by Close gets the bare form here.
func (b *Backend) lostErr() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.readErr != nil {
		return b.readErr
	}
	return fmt.Errorf("remote %s: %w", b.addr, ErrConnectionLost)
}

func (b *Backend) send(msg any) error {
	b.wmu.Lock()
	defer b.wmu.Unlock()
	return b.c.Send(msg)
}

// call sends one request frame and waits for the response carrying the
// same id. On ctx cancellation it sends a best-effort Cancel, retires
// the id locally, and returns ctx.Err() — the server's eventual answer
// is discarded by the read loop.
func (b *Backend) call(ctx context.Context, id uint64, req any) (any, error) {
	ch := make(chan any, 1)
	b.mu.Lock()
	if b.pending == nil {
		b.mu.Unlock()
		return nil, b.lostErr()
	}
	b.pending[id] = ch
	b.mu.Unlock()
	retire := func() {
		b.mu.Lock()
		if b.pending != nil {
			delete(b.pending, id)
		}
		b.mu.Unlock()
	}
	if err := b.send(req); err != nil {
		retire()
		// A failed send means the socket is gone (our own frames always
		// marshal); report it as the connection loss it is so failover
		// layers recognize it.
		return nil, fmt.Errorf("remote %s: %w: %v", b.addr, ErrConnectionLost, err)
	}
	select {
	case resp := <-ch:
		return resp, nil
	case <-ctx.Done():
		// Async so a peer that stopped reading (write lock held by a
		// stalled sender) cannot delay the caller's prompt return.
		go b.send(&wire.Cancel{ID: id})
		retire()
		return nil, ctx.Err()
	case <-b.readDone:
		return nil, b.lostErr()
	}
}

// Search compares the queries against the server's database and returns
// the merged hits, byte-identical to what a local engine.Searcher over
// the same sequences reports. Concurrent calls share the connection;
// ctx cancellation aborts the request on both ends.
func (b *Backend) Search(ctx context.Context, queries *seq.Set, opts engine.SearchOptions) (*master.Report, error) {
	if queries == nil {
		return nil, fmt.Errorf("remote %s: nil query set", b.addr)
	}
	if queries.Alpha != b.alpha {
		return nil, fmt.Errorf("remote %s: query alphabet differs from server database alphabet", b.addr)
	}
	id := b.nextID.Add(1)
	req := &wire.SearchRequest{ID: id, TopK: uint32(opts.TopK), Queries: make([]wire.Query, queries.Len())}
	for qi := range queries.Seqs {
		req.Queries[qi] = wire.Query{ID: queries.Seqs[qi].ID, Residues: queries.Seqs[qi].Residues}
	}
	start := time.Now()
	resp, err := b.call(ctx, id, req)
	if err != nil {
		return nil, err
	}
	switch m := resp.(type) {
	case *wire.SearchResult:
		if len(m.Results) != queries.Len() {
			return nil, fmt.Errorf("remote %s: %d results for %d queries", b.addr, len(m.Results), queries.Len())
		}
		rep := &master.Report{Results: make([]master.QueryResult, len(m.Results))}
		for qi := range m.Results {
			r := &m.Results[qi]
			if int(r.QueryIndex) != qi {
				return nil, fmt.Errorf("remote %s: result %d arrived at position %d", b.addr, r.QueryIndex, qi)
			}
			qr := master.QueryResult{
				QueryIndex: qi,
				QueryID:    queries.Seqs[qi].ID,
				Elapsed:    time.Duration(r.ElapsedNS),
				Cells:      int64(r.Cells),
			}
			for _, h := range r.Hits {
				qr.Hits = append(qr.Hits, master.Hit{SeqIndex: int(h.SeqIndex), SeqID: h.SeqID, Score: int(h.Score)})
			}
			rep.Results[qi] = qr
			rep.Cells += qr.Cells
		}
		rep.Wall = time.Since(start)
		if sec := rep.Wall.Seconds(); sec > 0 {
			rep.GCUPS = float64(rep.Cells) / sec / 1e9
		}
		return rep, nil
	case *wire.ReqError:
		return nil, fmt.Errorf("remote %s: %s", b.addr, m.Text)
	}
	return nil, fmt.Errorf("remote %s: unexpected %T", b.addr, resp)
}

// Stats fetches the server engine's counters. A dead connection reports
// zero counters — Stats has no error channel, and an aggregating caller
// (the sharding facade) must keep working while a shard is down.
// Counters arrive by name: a name engine.Counters does not list is
// ignored, and a listed one the server did not send stays zero.
func (b *Backend) Stats() engine.Stats {
	id := b.nextID.Add(1)
	ctx, cancel := context.WithTimeout(context.Background(), rpcTimeout)
	defer cancel()
	resp, err := b.call(ctx, id, &wire.StatsRequest{ID: id})
	if err != nil {
		return engine.Stats{}
	}
	m, ok := resp.(*wire.StatsResponse)
	if !ok {
		return engine.Stats{}
	}
	st := engine.Stats{
		DBSequences:    int(m.DBSequences),
		DBResidues:     int64(m.DBResidues),
		DBChecksum:     m.DBChecksum,
		Prepared:       int(m.Prepared),
		WorkersStarted: int(m.WorkersStarted),
	}
	for _, wc := range m.Counters {
		for _, c := range engine.Counters {
			if c.Name == wc.Name {
				*c.Of(&st) = wc.Value
			}
		}
	}
	for _, w := range m.Workers {
		st.Workers = append(st.Workers, engine.WorkerRate{
			Name:            w.Name,
			Kind:            sched.Kind(w.Kind),
			AdvertisedGCUPS: w.AdvertisedGCUPS,
			ObservedGCUPS:   w.ObservedGCUPS,
			Tasks:           w.Tasks,
		})
	}
	return st
}

// Close closes the connection; the server observes the drop and cancels
// this session's in-flight requests. It is idempotent and safe to call
// concurrently; in-flight calls fail with a connection-closed error.
// The protocol has no session-ending frame on purpose: sending one
// would need the write lock, and a peer that stopped reading could then
// stall Close behind a blocked sender, when closing the socket is the
// very thing that unblocks it.
func (b *Backend) Close() error {
	b.closeOnce.Do(func() {
		b.closeErr = b.nc.Close()
		<-b.readDone
	})
	return b.closeErr
}
