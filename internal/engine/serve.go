package engine

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"swdual/internal/alphabet"
	"swdual/internal/master"
	"swdual/internal/seq"
	"swdual/internal/sw"
	"swdual/internal/wire"
)

// Serve mode: an engine exposed over the internal/wire protocol to the
// cluster coordinator that scatters to it — the paper's §IV worker,
// holding the database and answering the master's queries. After the
// handshake a connection is one multiplexed session: every
// frame carries a request id and any number of requests are in flight.
//
//	client                               server
//	Hello{Version, Name, DBChecksum?} ->
//	                          <-  Welcome{Version, DBChecksum, Alphabet, TopK, Matrix, GapStart, GapExtend}
//	SearchRequest{ID: 1, …}   ->
//	StatsRequest{ID: 2}       ->
//	                          <-  StatsResponse{ID: 2, Counters: [(name, value)…], …}
//	Cancel{ID: 1}             ->  (optional)
//	                          <-  SearchResult{ID: 1, …} | ReqError{ID: 1}
//	close the connection      ->  (ends the session, cancels what is in flight)
//
// A non-zero Hello.DBChecksum must match the server database, so a
// client that also holds the database locally can verify both ends
// search the same sequences; a completed handshake is also the proof
// that the server answers, which is all a replica's redial needs. The
// StatsResponse carries the Counters list by name, so a new counter
// changes no frame layout. Residues cross the wire encoded in the
// server database's alphabet, which the Welcome names together with the
// most hits per query the server returns (TopK, when the backend has a
// TopK method; 0 otherwise) and its scoring (when it has a Params
// method; Matrix "" otherwise), so a coordinator can refuse a server that
// would truncate its merge or score otherwise. Concurrent requests — from
// one session or from many connections — are coalesced into shared
// scheduling waves by the Searcher's dispatcher. When a connection dies, its in-flight
// requests are canceled. A SearchResult is always a full answer: a
// backend answer that carries Coverage is refused with a ReqError.

// Backend is the search service Serve exposes and remote clients stand
// in for: the in-process Searcher, the sharded scatter/gather facade, or
// a remote.Backend speaking this protocol to another process — all
// byte-identical to one Searcher over the whole database.
type Backend interface {
	Search(ctx context.Context, queries *seq.Set, opts SearchOptions) (*master.Report, error)
	Stats() Stats
	Checksum() uint32
	Alphabet() *alphabet.Alphabet
	Close() error
}

// Serve accepts connections on l and answers each over the wire
// protocol until the listener is closed (use l.Close to stop). Each
// connection's queries become Search calls on the backend, so
// concurrent clients batch into waves. Serve returns nil when l closes.
func Serve(l net.Listener, s Backend) error {
	for {
		nc, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go func() {
			defer nc.Close()
			serveConn(wire.NewConn(nc), s, handshakeTimeout)
		}()
	}
}

// checkResidues rejects out-of-range residue codes at the boundary: wire
// bytes are untrusted, and a code past the alphabet would index past the
// score profiles inside the kernels and crash the shared engine.
func checkResidues(alpha *alphabet.Alphabet, id string, residues []byte) error {
	limit := byte(alpha.Len())
	for _, r := range residues {
		if r >= limit {
			return fmt.Errorf("engine: query %q has residue code %d outside the %s alphabet (max %d); send residues encoded with the server alphabet", id, r, alpha.Name(), limit-1)
		}
	}
	return nil
}

// handshakeTimeout bounds the Hello/Welcome exchange, so a peer that
// connects and stays mute cannot pin a goroutine and a file descriptor
// forever. It mirrors remote.DefaultDialTimeout on the client side.
const handshakeTimeout = 10 * time.Second

// serveConn answers one client: the handshake, bounded by the handshake
// timeout, then the multiplexed session. Protocol errors end the
// connection; the client sees the ErrorMsg or the closed stream.
func serveConn(c *wire.Conn, s Backend, handshake time.Duration) {
	fail := func(err error) { c.Send(&wire.ErrorMsg{Text: err.Error()}) }
	if err := c.SetDeadline(time.Now().Add(handshake)); err != nil {
		return
	}
	msg, err := c.Recv()
	if err != nil {
		return
	}
	hello, ok := msg.(*wire.Hello)
	if !ok {
		fail(fmt.Errorf("engine: expected Hello, got %T", msg))
		return
	}
	if hello.Version != wire.Version {
		fail(fmt.Errorf("engine: protocol version %d, want %d", hello.Version, wire.Version))
		return
	}
	if hello.DBChecksum != 0 && hello.DBChecksum != s.Checksum() {
		fail(fmt.Errorf("engine: database checksum mismatch (client %08x, server %08x)", hello.DBChecksum, s.Checksum()))
		return
	}
	welcome := &wire.Welcome{Version: wire.Version, DBChecksum: s.Checksum(), Alphabet: s.Alphabet().Name()}
	if capped, ok := s.(interface{ TopK() int }); ok {
		welcome.TopK = uint32(capped.TopK())
	}
	if scored, ok := s.(interface{ Params() sw.Params }); ok {
		p := scored.Params()
		welcome.Matrix, welcome.GapStart, welcome.GapExtend = p.Matrix.Name(), uint32(p.Gaps.Start), uint32(p.Gaps.Extend)
	}
	if err := c.Send(welcome); err != nil {
		return
	}
	// A session lives arbitrarily long; per-request bounds come from the
	// client's Cancel frames.
	if err := c.SetDeadline(time.Time{}); err != nil {
		return
	}
	serveMux(c, s)
}

// muxSession is one multiplexed connection: a read loop dispatching
// frames, per-request goroutines answering them, and a write lock
// serializing their responses.
type muxSession struct {
	c *wire.Conn
	s Backend

	wmu sync.Mutex // guards c.Send

	ctx    context.Context // canceled when the read loop exits
	cancel context.CancelFunc

	mu       sync.Mutex
	inflight map[uint64]context.CancelFunc
	wg       sync.WaitGroup
}

func (m *muxSession) send(msg any) error {
	m.wmu.Lock()
	defer m.wmu.Unlock()
	return m.c.Send(msg)
}

func (m *muxSession) failReq(id uint64, err error) {
	m.send(&wire.ReqError{ID: id, Text: err.Error()})
}

// serveMux runs the session after the handshake. When the loop exits —
// a protocol error, or a connection the client closed or lost — every in-flight
// request is canceled and the session waits for its goroutines before
// returning.
func serveMux(c *wire.Conn, s Backend) {
	m := &muxSession{c: c, s: s, inflight: map[uint64]context.CancelFunc{}}
	m.ctx, m.cancel = context.WithCancel(context.Background())
	defer func() {
		m.cancel()
		m.wg.Wait()
	}()
	for {
		msg, err := c.Recv()
		if err != nil || m.handle(msg) {
			return
		}
	}
}

// handle processes one frame; it reports true when the session is over.
func (m *muxSession) handle(msg any) (done bool) {
	switch t := msg.(type) {
	case *wire.SearchRequest:
		m.startSearch(t)
	case *wire.Cancel:
		m.mu.Lock()
		if cancel, ok := m.inflight[t.ID]; ok {
			cancel()
		}
		m.mu.Unlock()
	case *wire.StatsRequest:
		// Off the read loop: a coordinator backend's Stats is a network
		// fan-out, and Cancel frames must keep flowing past it.
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			m.send(statsFrame(t.ID, m.s.Stats()))
		}()
	default:
		m.send(&wire.ErrorMsg{Text: fmt.Sprintf("engine: unexpected %T in session", msg)})
		return true
	}
	return false
}

// startSearch validates one SearchRequest and answers it from its own
// goroutine, so the read loop keeps dispatching (and can deliver the
// Cancel that aborts this very request).
func (m *muxSession) startSearch(req *wire.SearchRequest) {
	queries := seq.NewSet(m.s.Alphabet())
	for _, q := range req.Queries {
		if err := checkResidues(queries.Alpha, q.ID, q.Residues); err != nil {
			m.failReq(req.ID, err)
			return
		}
		queries.AddEncoded(q.ID, "", q.Residues)
	}
	rctx, rcancel := context.WithCancel(m.ctx)
	m.mu.Lock()
	if _, dup := m.inflight[req.ID]; dup {
		m.mu.Unlock()
		rcancel()
		m.failReq(req.ID, fmt.Errorf("engine: request id %d already in flight", req.ID))
		return
	}
	m.inflight[req.ID] = rcancel
	m.mu.Unlock()
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		defer func() {
			m.mu.Lock()
			delete(m.inflight, req.ID)
			m.mu.Unlock()
			rcancel()
		}()
		rep, err := m.s.Search(rctx, queries, SearchOptions{TopK: int(req.TopK)})
		if err == nil && rep.Coverage != nil {
			// A SearchResult is always a full answer: a backend that
			// skipped ranges fails the request instead.
			err = errors.New("engine: a partial answer cannot cross the wire")
		}
		if err != nil {
			m.failReq(req.ID, err)
			return
		}
		out := &wire.SearchResult{ID: req.ID, Results: make([]wire.Result, len(rep.Results))}
		for qi, res := range rep.Results {
			out.Results[qi] = *resultFrame(qi, res)
		}
		m.send(out)
	}()
}

func resultFrame(qi int, res master.QueryResult) *wire.Result {
	out := &wire.Result{
		QueryIndex: uint32(qi),
		ElapsedNS:  uint64(res.Elapsed),
		Cells:      uint64(res.Cells),
	}
	for _, h := range res.Hits {
		out.Hits = append(out.Hits, wire.ResultHit{SeqIndex: uint32(h.SeqIndex), Score: int32(h.Score), SeqID: h.SeqID})
	}
	return out
}

// statsFrame mirrors a Stats snapshot into its wire form, the counters
// as a (name, value) list in Counters order.
func statsFrame(id uint64, st Stats) *wire.StatsResponse {
	resp := &wire.StatsResponse{
		ID:             id,
		DBSequences:    uint32(st.DBSequences),
		DBResidues:     uint64(st.DBResidues),
		DBChecksum:     st.DBChecksum,
		Prepared:       uint32(st.Prepared),
		WorkersStarted: uint32(st.WorkersStarted),
		Counters:       make([]wire.Counter, len(Counters)),
		Workers:        make([]wire.WorkerRateInfo, len(st.Workers)),
	}
	for i, c := range Counters {
		resp.Counters[i] = wire.Counter{Name: c.Name, Value: *c.Of(&st)}
	}
	for i, w := range st.Workers {
		resp.Workers[i] = wire.WorkerRateInfo{
			Name:            w.Name,
			Kind:            uint8(w.Kind),
			AdvertisedGCUPS: w.AdvertisedGCUPS,
			ObservedGCUPS:   w.ObservedGCUPS,
			Tasks:           w.Tasks,
		}
	}
	return resp
}
