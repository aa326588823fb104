package replica

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"swdual/internal/alphabet"
	"swdual/internal/engine"
	"swdual/internal/master"
	"swdual/internal/remote"
	"swdual/internal/sched"
	"swdual/internal/seq"
	"swdual/internal/shard"
	"swdual/internal/synth"
)

// The replica suite proves the two claims the package makes: replicated
// searches are byte-identical to unsharded ones (replicas cannot change
// answers, only availability), and a search survives one replica death
// per range where the unreplicated coordinator fails fast.

// hitBytes serializes per-query hits so "byte-identical" is literal.
func hitBytes(t *testing.T, results []master.QueryResult) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, res := range results {
		binary.Write(&buf, binary.LittleEndian, int64(res.QueryIndex))
		buf.WriteString(res.QueryID)
		binary.Write(&buf, binary.LittleEndian, int64(len(res.Hits)))
		for _, h := range res.Hits {
			binary.Write(&buf, binary.LittleEndian, int64(h.SeqIndex))
			binary.Write(&buf, binary.LittleEndian, int64(h.Score))
			buf.WriteString(h.SeqID)
		}
	}
	return buf.Bytes()
}

func searchHits(t *testing.T, s engine.Backend, queries *seq.Set, topK int) []byte {
	t.Helper()
	rep, err := s.Search(context.Background(), queries, engine.SearchOptions{TopK: topK})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != queries.Len() {
		t.Fatalf("%d results for %d queries", len(rep.Results), queries.Len())
	}
	return hitBytes(t, rep.Results)
}

// gateWorker blocks in Run until released, pinning a search in flight
// deterministically.
type gateWorker struct {
	started chan struct{}
	release chan struct{}
	once    sync.Once
}

func newGateWorker() *gateWorker {
	return &gateWorker{started: make(chan struct{}), release: make(chan struct{})}
}

func (w *gateWorker) Name() string       { return "gate" }
func (w *gateWorker) Kind() sched.Kind   { return sched.CPU }
func (w *gateWorker) RateGCUPS() float64 { return 1 }
func (w *gateWorker) Run(qi int, q *seq.Sequence, db *seq.Set) master.QueryResult {
	w.once.Do(func() { close(w.started) })
	<-w.release
	return master.QueryResult{QueryIndex: qi, QueryID: q.ID, Worker: "gate", Elapsed: time.Nanosecond, Cells: 1}
}

// killableServer is a serve endpoint whose accepted connections are
// tracked, so a test can sever them all — the observable effect of the
// replica's server process dying.
type killableServer struct {
	l   net.Listener
	eng *engine.Searcher

	mu    sync.Mutex
	conns []net.Conn
}

type trackingListener struct {
	net.Listener
	s *killableServer
}

func (t trackingListener) Accept() (net.Conn, error) {
	nc, err := t.Listener.Accept()
	if err != nil {
		return nil, err
	}
	t.s.mu.Lock()
	t.s.conns = append(t.s.conns, nc)
	t.s.mu.Unlock()
	return nc, nil
}

func startKillableServer(t *testing.T, db *seq.Set, ecfg engine.Config) *killableServer {
	t.Helper()
	eng, err := engine.New(db, ecfg)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		eng.Close()
		t.Fatal(err)
	}
	s := &killableServer{l: l, eng: eng}
	go engine.Serve(trackingListener{Listener: l, s: s}, eng)
	t.Cleanup(func() { s.kill(); eng.Close() })
	return s
}

func (s *killableServer) addr() string { return s.l.Addr().String() }

func (s *killableServer) kill() {
	s.l.Close()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, nc := range s.conns {
		nc.Close()
	}
	s.conns = nil
}

func waitNoLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}

// TestReplicatedShardedMatchesUnsharded is the acceptance bar: shard
// counts 1, 2 and 4, each range held by two replicas — one remote, one
// in-process — must gather hits byte-identical to a single unsharded
// engine over the whole database.
func TestReplicatedShardedMatchesUnsharded(t *testing.T) {
	const topK = 5
	db := synth.RandomSet(alphabet.Protein, 26, 10, 110, 7001)
	queries := synth.RandomSet(alphabet.Protein, 3, 20, 90, 7002)
	ecfg := engine.Config{Pool: master.PoolSpec{CPU: 1, GPU: 1}, TopK: topK}

	ref, err := engine.New(db, ecfg)
	if err != nil {
		t.Fatal(err)
	}
	want := searchHits(t, ref, queries, 0)
	ref.Close()

	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			ranges := shard.RangesFor(db, shards, shard.Contiguous)
			backends := make([]engine.Backend, len(ranges))
			for i, r := range ranges {
				slice := db.Slice(r.Lo, r.Hi)
				srv := startKillableServer(t, slice, ecfg)
				rb, err := remote.Dial(srv.addr(), slice.Checksum())
				if err != nil {
					t.Fatal(err)
				}
				local, err := engine.New(slice, ecfg)
				if err != nil {
					t.Fatal(err)
				}
				set, err := NewSet(fmt.Sprintf("shard %d [%d,%d)", i, r.Lo, r.Hi), slice.Checksum(),
					[]Replica{{Backend: rb}, {Backend: local}}, Config{})
				if err != nil {
					t.Fatal(err)
				}
				backends[i] = set
			}
			s, err := shard.WithBackends(db, shard.Contiguous, ranges, backends, topK)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			// Two rounds: the second exercises warmed EWMA/rate state.
			for round := 0; round < 2; round++ {
				if got := searchHits(t, s, queries, 0); !bytes.Equal(got, want) {
					t.Fatalf("round %d: replicated sharded hits differ from unsharded engine", round)
				}
			}
			if s.Checksum() != db.Checksum() {
				t.Fatalf("replicated facade checksum %08x != database %08x", s.Checksum(), db.Checksum())
			}
		})
	}
}

// TestSearchSurvivesReplicaDeathMidSearch pins a search on the remote
// replica, kills its server, and requires the search to complete on the
// surviving sibling — the flip side of the unreplicated fault test,
// which requires that same death to fail the whole search. The failover
// must also be visible: FailedOver rises through the set, through the
// shard aggregation, and over the wire.
func TestSearchSurvivesReplicaDeathMidSearch(t *testing.T) {
	db := synth.RandomSet(alphabet.Protein, 16, 10, 60, 7101)
	queries := synth.RandomSet(alphabet.Protein, 3, 20, 50, 7102)

	gw := newGateWorker()
	srv := startKillableServer(t, db, engine.Config{
		Workers: []master.Worker{gw}, TopK: 3, Policy: master.PolicySelfScheduling,
	})
	rb, err := remote.Dial(srv.addr(), db.Checksum())
	if err != nil {
		t.Fatal(err)
	}
	local, err := engine.New(db, engine.Config{Pool: master.PoolSpec{CPU: 1}, TopK: 3})
	if err != nil {
		t.Fatal(err)
	}
	set, err := NewSet("shard 0 [0,16)", db.Checksum(),
		[]Replica{{Backend: rb}, {Backend: local}}, Config{DisableHedge: true})
	if err != nil {
		t.Fatal(err)
	}
	ranges := []shard.Range{{Lo: 0, Hi: db.Len()}}
	s, err := shard.WithBackends(db, shard.Contiguous, ranges, []engine.Backend{set}, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	ref, err := engine.New(db, engine.Config{Pool: master.PoolSpec{CPU: 1}, TopK: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := searchHits(t, ref, queries, 0)
	ref.Close()

	done := make(chan struct {
		rep *master.Report
		err error
	}, 1)
	go func() {
		rep, err := s.Search(context.Background(), queries, engine.SearchOptions{})
		done <- struct {
			rep *master.Report
			err error
		}{rep, err}
	}()
	<-gw.started // the remote replica provably holds the search
	srv.kill()
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatalf("search did not survive replica death: %v", r.err)
		}
		if got := hitBytes(t, r.rep.Results); !bytes.Equal(got, want) {
			t.Fatal("failed-over hits differ from reference engine")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("search hung on a dead replica")
	}
	close(gw.release)

	if st := set.Stats(); st.FailedOver < 1 {
		t.Fatalf("set FailedOver = %d, want >= 1", st.FailedOver)
	}
	// Aggregated through the sharded facade.
	if st := s.Stats(); st.FailedOver < 1 {
		t.Fatalf("shard-aggregated FailedOver = %d, want >= 1", st.FailedOver)
	}
	// And across the wire: serve the sharded facade, dial it, and read
	// the counters a remote operator would see.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go engine.Serve(l, s)
	wb, err := remote.Dial(l.Addr().String(), db.Checksum())
	if err != nil {
		t.Fatal(err)
	}
	defer wb.Close()
	if st := wb.Stats(); st.FailedOver < 1 {
		t.Fatalf("wire-level FailedOver = %d, want >= 1", st.FailedOver)
	}
}

// TestAllReplicasDeadNamesTheRange kills every replica of a range and
// requires the error to name the set and the underlying cause, so an
// operator knows which range lost its last copy.
func TestAllReplicasDeadNamesTheRange(t *testing.T) {
	db := synth.RandomSet(alphabet.Protein, 12, 10, 60, 7201)
	queries := synth.RandomSet(alphabet.Protein, 2, 20, 50, 7202)
	ecfg := engine.Config{Pool: master.PoolSpec{CPU: 1}, TopK: 3}

	srv0 := startKillableServer(t, db, ecfg)
	srv1 := startKillableServer(t, db, ecfg)
	rb0, err := remote.Dial(srv0.addr(), db.Checksum())
	if err != nil {
		t.Fatal(err)
	}
	rb1, err := remote.Dial(srv1.addr(), db.Checksum())
	if err != nil {
		t.Fatal(err)
	}
	set, err := NewSet("shard 1 [6,12)", db.Checksum(),
		[]Replica{{Backend: rb0}, {Backend: rb1}}, Config{DisableHedge: true})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()

	// Prove the set works, then kill both members.
	if _, err := set.Search(context.Background(), queries, engine.SearchOptions{}); err != nil {
		t.Fatalf("search before kill: %v", err)
	}
	srv0.kill()
	srv1.kill()
	_, err = set.Search(context.Background(), queries, engine.SearchOptions{})
	if err == nil {
		t.Fatal("search succeeded with every replica dead")
	}
	msg := err.Error()
	if !strings.Contains(msg, "shard 1 [6,12)") || !strings.Contains(msg, "unavailable") {
		t.Fatalf("error does not name the dead range: %v", err)
	}
	if !strings.Contains(msg, "connection lost") {
		t.Fatalf("error does not carry the underlying cause: %v", err)
	}
	// The replica layer must not leak the ErrClosed sentinel upward:
	// callers distinguish "the set is closed" from "the set is down".
	if errors.Is(err, engine.ErrClosed) {
		t.Fatalf("all-replicas-dead error claims the set is closed: %v", err)
	}
	if st := set.Stats(); st.FailedOver < 1 {
		t.Fatalf("FailedOver = %d after exhausting replicas", st.FailedOver)
	}
}

// TestHedgeFiresOnSlowReplica pins replica 0, arms a short fixed hedge
// threshold, and requires the answer to come from the fast sibling with
// HedgedSearches counted — and no goroutine left behind once the slow
// arm drains.
func TestHedgeFiresOnSlowReplica(t *testing.T) {
	before := runtime.NumGoroutine()
	db := synth.RandomSet(alphabet.Protein, 14, 10, 60, 7301)
	queries := synth.RandomSet(alphabet.Protein, 2, 20, 50, 7302)

	gw := newGateWorker()
	slow, err := engine.New(db, engine.Config{
		Workers: []master.Worker{gw}, TopK: 3, Policy: master.PolicySelfScheduling,
	})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := engine.New(db, engine.Config{Pool: master.PoolSpec{CPU: 1}, TopK: 3})
	if err != nil {
		t.Fatal(err)
	}
	set, err := NewSet("hedge", db.Checksum(),
		[]Replica{{Backend: slow}, {Backend: fast}}, Config{HedgeAfter: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}

	ref, err := engine.New(db, engine.Config{Pool: master.PoolSpec{CPU: 1}, TopK: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := searchHits(t, ref, queries, 0)
	ref.Close()

	start := time.Now()
	got := searchHits(t, set, queries, 0)
	if !bytes.Equal(got, want) {
		t.Fatal("hedged hits differ from reference engine")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("hedged search took %v — answer did not come from the fast replica", elapsed)
	}
	if st := set.Stats(); st.HedgedSearches != 1 {
		t.Fatalf("HedgedSearches = %d, want 1", st.HedgedSearches)
	}
	// The slow replica was never marked down: slow is not dead.
	if n := set.Healthy(); n != 2 {
		t.Fatalf("healthy replicas = %d after hedge, want 2", n)
	}

	close(gw.release) // let the losing arm drain
	if err := set.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	waitNoLeak(t, before)
}

// TestRedialRevivesDeadReplica kills the remote replica, fails a search
// over to the sibling, restarts the server, and waits for the redial
// loop to bring the set back to full health with Redials counted.
func TestRedialRevivesDeadReplica(t *testing.T) {
	db := synth.RandomSet(alphabet.Protein, 12, 10, 60, 7401)
	queries := synth.RandomSet(alphabet.Protein, 2, 20, 50, 7402)
	ecfg := engine.Config{Pool: master.PoolSpec{CPU: 1}, TopK: 3}

	srv := startKillableServer(t, db, ecfg)
	var addr atomic.Value
	addr.Store(srv.addr())
	rb, err := remote.Dial(srv.addr(), db.Checksum())
	if err != nil {
		t.Fatal(err)
	}
	local, err := engine.New(db, ecfg)
	if err != nil {
		t.Fatal(err)
	}
	set, err := NewSet("redial", db.Checksum(), []Replica{
		{Backend: rb, Redial: func() (engine.Backend, error) {
			return remote.Dial(addr.Load().(string), db.Checksum())
		}},
		{Backend: local},
	}, Config{DisableHedge: true, RedialBase: 5 * time.Millisecond, RedialMax: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()

	srv.kill()
	// The dead replica costs one failover; the search still answers.
	if _, err := set.Search(context.Background(), queries, engine.SearchOptions{}); err != nil {
		t.Fatalf("search after replica death: %v", err)
	}
	if n := set.Healthy(); n != 1 {
		t.Fatalf("healthy = %d after kill, want 1", n)
	}

	// Bring a fresh server up (new port) and point the redial at it.
	srv2 := startKillableServer(t, db, ecfg)
	addr.Store(srv2.addr())
	deadline := time.Now().Add(10 * time.Second)
	for set.Healthy() != 2 {
		if time.Now().After(deadline) {
			t.Fatal("redial loop never revived the replica")
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := set.Stats()
	if st.Redials < 1 {
		t.Fatalf("Redials = %d, want >= 1", st.Redials)
	}
	if st.FailedOver < 1 {
		t.Fatalf("FailedOver = %d, want >= 1", st.FailedOver)
	}
	// The revived replica serves searches again.
	if _, err := set.Search(context.Background(), queries, engine.SearchOptions{}); err != nil {
		t.Fatalf("search after revival: %v", err)
	}
}

// TestNewSetRejectsSkewedReplicas: replicas serving different slices
// must be refused at construction — failover between them would change
// answers, not preserve them.
func TestNewSetRejectsSkewedReplicas(t *testing.T) {
	db := synth.RandomSet(alphabet.Protein, 10, 10, 60, 7501)
	a, err := engine.New(db.Slice(0, 5), engine.Config{Pool: master.PoolSpec{CPU: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := engine.New(db.Slice(5, 10), engine.Config{Pool: master.PoolSpec{CPU: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if _, err := NewSet("skew", 0, []Replica{{Backend: a}, {Backend: b}}, Config{}); err == nil {
		t.Fatal("skewed replicas accepted")
	} else if !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("skew error does not mention checksum: %v", err)
	}
	// And against the caller's own expectation.
	if _, err := NewSet("skew", db.Checksum(), []Replica{{Backend: a}}, Config{}); err == nil {
		t.Fatal("replica with wrong checksum accepted against wantChecksum")
	}
}

// TestSetCloseIsIdempotent closes the set from several goroutines and
// requires later calls to fail with the closed sentinel, not hang.
func TestSetCloseIsIdempotent(t *testing.T) {
	db := synth.RandomSet(alphabet.Protein, 8, 10, 40, 7601)
	a, err := engine.New(db, engine.Config{Pool: master.PoolSpec{CPU: 1}, TopK: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := engine.New(db, engine.Config{Pool: master.PoolSpec{CPU: 1}, TopK: 3})
	if err != nil {
		t.Fatal(err)
	}
	set, err := NewSet("close", db.Checksum(), []Replica{{Backend: a}, {Backend: b}}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			set.Close()
		}()
	}
	wg.Wait()
	if err := set.Close(); err != nil {
		t.Fatalf("close after close: %v", err)
	}
	queries := synth.RandomSet(alphabet.Protein, 1, 20, 30, 7602)
	if _, err := set.Search(context.Background(), queries, engine.SearchOptions{}); !errors.Is(err, engine.ErrClosed) {
		t.Fatalf("search after close: %v, want ErrClosed", err)
	}
}

// TestNewSetRequiresALiveReplica: a set whose every member starts down
// cannot describe its slice and must be refused.
func TestNewSetRequiresALiveReplica(t *testing.T) {
	if _, err := NewSet("down", 0, []Replica{
		{Redial: func() (engine.Backend, error) { return nil, errors.New("nope") }},
	}, Config{}); err == nil {
		t.Fatal("all-down set accepted")
	}
	if _, err := NewSet("empty", 0, nil, Config{}); err == nil {
		t.Fatal("empty set accepted")
	}
}
