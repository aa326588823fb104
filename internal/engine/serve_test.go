package engine

import (
	"context"
	"fmt"
	"io"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"swdual/internal/alphabet"
	"swdual/internal/master"
	"swdual/internal/seq"
	"swdual/internal/synth"
	"swdual/internal/wire"
)

// The serve tests speak the protocol over a raw wire.Conn, so they pin
// what the server does with each frame rather than what the one real
// client (internal/remote) happens to send.

// startServe serves s on a loopback listener and returns the listener
// plus a channel carrying Serve's return value.
func startServe(t *testing.T, s Backend) (net.Listener, <-chan error) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	done := make(chan error, 1)
	go func() { done <- Serve(l, s) }()
	return l, done
}

// rawDial connects to a Serve endpoint without speaking. The connection
// carries a deadline, so a server regression fails a Recv instead of
// hanging the test.
func rawDial(t *testing.T, l net.Listener) *wire.Conn {
	t.Helper()
	nc, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	nc.SetDeadline(time.Now().Add(30 * time.Second))
	return wire.NewConn(nc)
}

// handshake sends Hello and returns the server's first frame.
func handshake(c *wire.Conn, checksum uint32) (any, error) {
	if err := c.Send(&wire.Hello{Version: wire.Version, Name: "raw", DBChecksum: checksum}); err != nil {
		return nil, err
	}
	return c.Recv()
}

// openSession dials l and completes the handshake.
func openSession(t *testing.T, l net.Listener, checksum uint32) *wire.Conn {
	t.Helper()
	c := rawDial(t, l)
	msg, err := handshake(c, checksum)
	if err != nil {
		t.Fatal(err)
	}
	// A Searcher names its scoring, the tests' default BLOSUM62 10/2; a
	// stub backend names none.
	if w, ok := msg.(*wire.Welcome); !ok || w.Version != wire.Version || w.Alphabet != alphabet.Protein.Name() ||
		w.Matrix != "" && (w.Matrix != "BLOSUM62" || w.GapStart != 10 || w.GapExtend != 2) {
		t.Fatalf("expected a version %d Welcome naming the protein alphabet and BLOSUM62 10/2 or no scoring, got %#v", wire.Version, msg)
	}
	return c
}

func searchRequest(id uint64, queries *seq.Set) *wire.SearchRequest {
	req := &wire.SearchRequest{ID: id, Queries: make([]wire.Query, queries.Len())}
	for qi := range queries.Seqs {
		req.Queries[qi] = wire.Query{ID: queries.Seqs[qi].ID, Residues: queries.Seqs[qi].Residues}
	}
	return req
}

// sameWireHits compares a SearchResult against a local report.
func sameWireHits(res *wire.SearchResult, local *master.Report) error {
	if len(res.Results) != len(local.Results) {
		return fmt.Errorf("%d results vs %d", len(res.Results), len(local.Results))
	}
	for qi := range res.Results {
		got, want := res.Results[qi].Hits, local.Results[qi].Hits
		if len(got) != len(want) {
			return fmt.Errorf("query %d: %d hits vs %d", qi, len(got), len(want))
		}
		for hi := range got {
			if int(got[hi].SeqIndex) != want[hi].SeqIndex || int(got[hi].Score) != want[hi].Score || got[hi].SeqID != want[hi].SeqID {
				return fmt.Errorf("query %d hit %d: %+v vs %+v", qi, hi, got[hi], want[hi])
			}
		}
	}
	return nil
}

// TestServeRejectsInvalidResidues sends raw ASCII (not alphabet codes)
// as residues; the server must refuse that request at the boundary
// instead of letting out-of-range codes crash a shared kernel, and the
// same session must go on answering well-formed requests.
func TestServeRejectsInvalidResidues(t *testing.T) {
	db := synth.RandomSet(alphabet.Protein, 10, 10, 50, 53)
	s, err := New(db, Config{Pool: master.PoolSpec{CPU: 1}, TopK: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	l, _ := startServe(t, s)
	c := openSession(t, l, 0)
	bad := &wire.SearchRequest{ID: 1, Queries: []wire.Query{{ID: "q", Residues: []byte("MKWVTFISLL")}}}
	if err := c.Send(bad); err != nil {
		t.Fatal(err)
	}
	msg, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if re, ok := msg.(*wire.ReqError); !ok || re.ID != 1 || !strings.Contains(re.Text, "residue") {
		t.Fatalf("expected ReqError{ID: 1} naming the residue for raw-ASCII input, got %#v", msg)
	}
	queries := synth.RandomSet(alphabet.Protein, 2, 20, 40, 54)
	if err := c.Send(searchRequest(2, queries)); err != nil {
		t.Fatal(err)
	}
	msg, err = c.Recv()
	if err != nil {
		t.Fatalf("session unhealthy after a rejected request: %v", err)
	}
	res, ok := msg.(*wire.SearchResult)
	if !ok || res.ID != 2 {
		t.Fatalf("expected SearchResult{ID: 2}, got %#v", msg)
	}
	local, err := s.Search(context.Background(), queries, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sameWireHits(res, local); err != nil {
		t.Fatal(err)
	}
}

// TestServeRejectsDuplicateRequestID pins request 1 in flight and sends
// a second request under the same id: the duplicate is refused, the
// original still completes.
func TestServeRejectsDuplicateRequestID(t *testing.T) {
	db := synth.RandomSet(alphabet.Protein, 10, 10, 50, 55)
	gw := newGateWorker("gate-0")
	s, err := New(db, Config{Workers: []master.Worker{gw}, TopK: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	l, _ := startServe(t, s)
	c := openSession(t, l, 0)
	req := searchRequest(1, synth.RandomSet(alphabet.Protein, 1, 20, 40, 56))
	if err := c.Send(req); err != nil {
		t.Fatal(err)
	}
	<-gw.started
	if err := c.Send(req); err != nil {
		t.Fatal(err)
	}
	msg, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if re, ok := msg.(*wire.ReqError); !ok || re.ID != 1 || !strings.Contains(re.Text, "already in flight") {
		t.Fatalf("expected the duplicate id refused, got %#v", msg)
	}
	close(gw.release)
	msg, err = c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if res, ok := msg.(*wire.SearchResult); !ok || res.ID != 1 {
		t.Fatalf("expected the original request answered, got %#v", msg)
	}
}

// TestServeRefusesStaleVersion: a peer one protocol version behind
// still sends a Hello this server decodes (the Hello layout and the
// ErrorMsg type code are the fixed points of the protocol), and is told
// why it is refused instead of misreading a later frame.
func TestServeRefusesStaleVersion(t *testing.T) {
	l, _ := startServe(t, newStubBackend())
	c := rawDial(t, l)
	if err := c.Send(&wire.Hello{Version: wire.Version - 1, Name: "stale"}); err != nil {
		t.Fatal(err)
	}
	msg, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("protocol version %d, want %d", wire.Version-1, wire.Version)
	if em, ok := msg.(*wire.ErrorMsg); !ok || !strings.Contains(em.Text, want) {
		t.Fatalf("expected ErrorMsg saying %q, got %#v", want, msg)
	}
	if _, err := c.Recv(); err != io.EOF {
		t.Fatalf("connection still open after a refused handshake: %v", err)
	}
}

// TestServeEndsSessionOnNonSessionFrame: a frame that is not part of
// the session vocabulary — here a second Hello — ends the session with
// an ErrorMsg and a closed connection.
func TestServeEndsSessionOnNonSessionFrame(t *testing.T) {
	l, _ := startServe(t, newStubBackend())
	c := openSession(t, l, 0)
	if err := c.Send(&wire.Hello{Version: wire.Version, Name: "again"}); err != nil {
		t.Fatal(err)
	}
	msg, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if em, ok := msg.(*wire.ErrorMsg); !ok || !strings.Contains(em.Text, "Hello") {
		t.Fatalf("expected ErrorMsg naming the Hello, got %#v", msg)
	}
	if _, err := c.Recv(); err != io.EOF {
		t.Fatalf("session still open after a protocol error: %v", err)
	}
}

// TestServeEndToEnd: concurrent sessions each get exactly the hits a
// local search of their query set produces, a checksum mismatch is
// refused at the handshake, and Serve returns nil once its listener
// closes.
func TestServeEndToEnd(t *testing.T) {
	db := synth.RandomSet(alphabet.Protein, 40, 10, 150, 51)
	s, err := New(db, Config{Pool: master.PoolSpec{CPU: 1, GPU: 1}, TopK: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	l, serveDone := startServe(t, s)

	const clients = 4
	conns := make([]*wire.Conn, clients)
	for i := range conns {
		conns[i] = openSession(t, l, s.Checksum())
	}
	var wg sync.WaitGroup
	for i, c := range conns {
		wg.Add(1)
		go func(i int, c *wire.Conn) {
			defer wg.Done()
			queries := synth.RandomSet(alphabet.Protein, 3, 20, 100, int64(400+i))
			if err := c.Send(searchRequest(uint64(i), queries)); err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			msg, err := c.Recv()
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			res, ok := msg.(*wire.SearchResult)
			if !ok || res.ID != uint64(i) {
				t.Errorf("client %d: expected SearchResult{ID: %d}, got %#v", i, i, msg)
				return
			}
			local, err := s.Search(context.Background(), queries, SearchOptions{})
			if err != nil {
				t.Errorf("client %d local: %v", i, err)
				return
			}
			if err := sameWireHits(res, local); err != nil {
				t.Errorf("client %d: %v", i, err)
			}
			if err := c.Close(); err != nil { // closing ends the session
				t.Errorf("client %d: %v", i, err)
			}
		}(i, c)
	}
	wg.Wait()

	msg, err := handshake(rawDial(t, l), s.Checksum()+1)
	if err != nil {
		t.Fatal(err)
	}
	if em, ok := msg.(*wire.ErrorMsg); !ok || !strings.Contains(em.Text, "checksum") {
		t.Fatalf("checksum mismatch not refused: %#v", msg)
	}

	l.Close()
	if err := <-serveDone; err != nil {
		t.Fatalf("serve: %v", err)
	}
	if st := s.Stats(); st.Searches < clients {
		t.Fatalf("server searches %d < %d clients", st.Searches, clients)
	}
}

// stubBackend is a Backend whose slow calls block on gates: Stats until
// statsRelease closes, Search until its context is canceled.
type stubBackend struct {
	statsEntered  chan struct{}
	statsRelease  chan struct{}
	searchEntered chan struct{}
}

func newStubBackend() *stubBackend {
	return &stubBackend{statsEntered: make(chan struct{}), statsRelease: make(chan struct{}), searchEntered: make(chan struct{})}
}

func (b *stubBackend) Search(ctx context.Context, _ *seq.Set, _ SearchOptions) (*master.Report, error) {
	close(b.searchEntered)
	<-ctx.Done()
	return nil, ctx.Err()
}
func (b *stubBackend) Stats() Stats {
	close(b.statsEntered)
	<-b.statsRelease
	return Stats{Searches: 42}
}
func (b *stubBackend) Checksum() uint32             { return 7 }
func (b *stubBackend) Alphabet() *alphabet.Alphabet { return alphabet.Protein }
func (b *stubBackend) Close() error                 { return nil }

// heldBackend is a stubBackend whose searches wait for release, not for
// their context, then answer with no hits.
type heldBackend struct {
	*stubBackend
	release chan struct{}
}

func (b heldBackend) Search(_ context.Context, queries *seq.Set, _ SearchOptions) (*master.Report, error) {
	close(b.searchEntered)
	<-b.release
	return &master.Report{Results: make([]master.QueryResult, queries.Len())}, nil
}

// lostConnection fails the test unless c's next Recv finds the
// connection closed rather than another frame.
func lostConnection(t *testing.T, c *wire.Conn) {
	t.Helper()
	if msg, err := c.Recv(); err == nil {
		t.Fatalf("expected the connection closed, got %#v", msg)
	}
}

// TestServeDrainsOnListenerClose: closing the listener does not end a
// session under its request. Serve waits while the search runs, the
// search answers, and only then is the connection closed and Serve
// returns.
func TestServeDrainsOnListenerClose(t *testing.T) {
	b := heldBackend{newStubBackend(), make(chan struct{})}
	l, done := startServe(t, b)
	c := openSession(t, l, 0)
	if err := c.Send(&wire.SearchRequest{ID: 1, Queries: []wire.Query{{ID: "q", Residues: []byte{0, 1, 2}}}}); err != nil {
		t.Fatal(err)
	}
	<-b.searchEntered
	l.Close()
	select {
	case err := <-done:
		t.Fatalf("Serve returned (%v) with a search in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(b.release)
	if msg, err := c.Recv(); err != nil {
		t.Fatalf("the search in flight never answered: %v", err)
	} else if res, ok := msg.(*wire.SearchResult); !ok || res.ID != 1 || len(res.Results) != 1 {
		t.Fatalf("expected SearchResult{ID: 1} with one result, got %#v", msg)
	}
	lostConnection(t, c)
	if err := <-done; err != nil {
		t.Fatalf("Serve: %v", err)
	}
}

// TestServeSeversAfterGrace: a search that outlives the grace period
// after the listener closed is cut off with its connection — the client
// sees a lost connection, which it fails over, not an error frame — and
// Serve returns.
func TestServeSeversAfterGrace(t *testing.T) {
	b := newStubBackend()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- serve(l, b, 100*time.Millisecond) }()
	c := openSession(t, l, 0)
	if err := c.Send(&wire.SearchRequest{ID: 1, Queries: []wire.Query{{ID: "q", Residues: []byte{0, 1, 2}}}}); err != nil {
		t.Fatal(err)
	}
	<-b.searchEntered
	start := time.Now()
	l.Close()
	lostConnection(t, c)
	if err := <-done; err != nil || time.Since(start) < 100*time.Millisecond {
		t.Fatalf("Serve returned %v after %v, want nil after the 100ms grace", err, time.Since(start))
	}
}

// badSearch is a request the read loop refuses itself — its residue code
// is outside every alphabet — so it round-trips without the backend.
func badSearch(id uint64) *wire.SearchRequest {
	return &wire.SearchRequest{ID: id, Queries: []wire.Query{{ID: "bad", Residues: []byte{200}}}}
}

// TestServeStatsDoesNotBlockSession: Stats on a coordinator backend is a
// network fan-out, so the server answers it off the read loop. While a
// StatsRequest is stuck in the backend, a refused search is answered and
// a Cancel reaches the search it names, on the same connection.
func TestServeStatsDoesNotBlockSession(t *testing.T) {
	b := newStubBackend()
	l, _ := startServe(t, b)
	c := openSession(t, l, 0)
	if err := c.Send(&wire.StatsRequest{ID: 1}); err != nil {
		t.Fatal(err)
	}
	<-b.statsEntered

	if err := c.Send(badSearch(2)); err != nil {
		t.Fatal(err)
	}
	msg, err := c.Recv()
	if err != nil {
		t.Fatalf("refused search stuck behind a blocked Stats: %v", err)
	}
	if re, ok := msg.(*wire.ReqError); !ok || re.ID != 2 || !strings.Contains(re.Text, "outside") {
		t.Fatalf("expected ReqError{ID: 2} naming the bad residue, got %#v", msg)
	}

	if err := c.Send(&wire.SearchRequest{ID: 3, Queries: []wire.Query{{ID: "q", Residues: []byte{0, 1, 2}}}}); err != nil {
		t.Fatal(err)
	}
	<-b.searchEntered
	if err := c.Send(&wire.Cancel{ID: 3}); err != nil {
		t.Fatal(err)
	}
	msg, err = c.Recv()
	if err != nil {
		t.Fatalf("Cancel stuck behind a blocked Stats: %v", err)
	}
	if re, ok := msg.(*wire.ReqError); !ok || re.ID != 3 || !strings.Contains(re.Text, "canceled") {
		t.Fatalf("expected request 3 canceled, got %#v", msg)
	}

	close(b.statsRelease)
	msg, err = c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if st, ok := msg.(*wire.StatsResponse); !ok || st.ID != 1 || !slices.Contains(st.Counters, wire.Counter{Name: "searches", Value: 42}) {
		t.Fatalf("expected StatsResponse{ID: 1} counting 42 searches, got %#v", msg)
	}
}

// TestServeHandshakeTimeoutOnSilentClient mirrors remote's
// TestDialTimeoutOnSilentServer from the other side: a peer that
// connects and never sends its Hello must not pin the connection's
// goroutine past the handshake bound.
func TestServeHandshakeTimeoutOnSilentClient(t *testing.T) {
	srv, cli := net.Pipe()
	defer cli.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer srv.Close()
		serveConn(newSession(srv), newStubBackend(), 300*time.Millisecond)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("a silent client held serveConn past the handshake timeout")
	}
}

// deadlineRecorder records every SetDeadline the server applies.
type deadlineRecorder struct {
	net.Conn
	deadlines []time.Time
}

func (d *deadlineRecorder) SetDeadline(t time.Time) error {
	d.deadlines = append(d.deadlines, t)
	return d.Conn.SetDeadline(t)
}

// TestServeClearsHandshakeDeadline: the handshake bound must not outlive
// the handshake, or it would cut every session that idles longer. The
// last deadline the server sets before entering the session is none.
func TestServeClearsHandshakeDeadline(t *testing.T) {
	srv, cli := net.Pipe()
	defer cli.Close()
	rec := &deadlineRecorder{Conn: srv}
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer srv.Close()
		serveConn(newSession(rec), newStubBackend(), time.Minute)
	}()
	c := wire.NewConn(cli)
	if msg, err := handshake(c, 0); err != nil {
		t.Fatal(err)
	} else if _, ok := msg.(*wire.Welcome); !ok {
		t.Fatalf("expected Welcome, got %#v", msg)
	}
	if err := c.Send(badSearch(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Recv(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	<-done
	if n := len(rec.deadlines); n != 2 || rec.deadlines[0].IsZero() || !rec.deadlines[1].IsZero() {
		t.Fatalf("deadlines set by the server: %v, want one handshake bound then a clear", rec.deadlines)
	}
}
