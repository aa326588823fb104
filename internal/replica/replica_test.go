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
			ranges := shard.RangesFor(db, shards, shard.BalancedResidues)
			backends := make([]engine.Backend, len(ranges))
			for i, r := range ranges {
				slice := db.Slice(r.Lo, r.Hi)
				srv := startKillableServer(t, slice, ecfg)
				rb, err := remote.DialTimeout(srv.addr(), slice.Checksum(), 0)
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
			s, err := shard.WithBackends(db, shard.BalancedResidues, ranges, backends, topK)
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
	rb, err := remote.DialTimeout(srv.addr(), db.Checksum(), 0)
	if err != nil {
		t.Fatal(err)
	}
	local, err := engine.New(db, engine.Config{Pool: master.PoolSpec{CPU: 1}, TopK: 3})
	if err != nil {
		t.Fatal(err)
	}
	set, err := NewSet("shard 0 [0,16)", db.Checksum(),
		[]Replica{{Backend: rb}, {Backend: local}}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ranges := []shard.Range{{Lo: 0, Hi: db.Len()}}
	s, err := shard.WithBackends(db, shard.BalancedResidues, ranges, []engine.Backend{set}, 3)
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
	wb, err := remote.DialTimeout(l.Addr().String(), db.Checksum(), 0)
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
	rb0, err := remote.DialTimeout(srv0.addr(), db.Checksum(), 0)
	if err != nil {
		t.Fatal(err)
	}
	rb1, err := remote.DialTimeout(srv1.addr(), db.Checksum(), 0)
	if err != nil {
		t.Fatal(err)
	}
	set, err := NewSet("shard 1 [6,12)", db.Checksum(),
		[]Replica{{Backend: rb0}, {Backend: rb1}}, Config{})
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

// stubBackend answers every search with one prebuilt report, so an
// allocation count of Set.Search measures the facade alone.
type stubBackend struct{ rep *master.Report }

func (b stubBackend) Search(context.Context, *seq.Set, engine.SearchOptions) (*master.Report, error) {
	return b.rep, nil
}
func (b stubBackend) Stats() engine.Stats          { return engine.Stats{} }
func (b stubBackend) Checksum() uint32             { return 1 }
func (b stubBackend) Alphabet() *alphabet.Alphabet { return alphabet.Protein }
func (b stubBackend) Close() error                 { return nil }

// TestSetSearchRunsInline pins that a replica set calls its replica on
// the caller's goroutine: no goroutine, channel, timer or context per
// call, with one replica or two.
func TestSetSearchRunsInline(t *testing.T) {
	queries := synth.RandomSet(alphabet.Protein, 1, 20, 40, 7303)
	stub := stubBackend{rep: &master.Report{}}
	for _, n := range []int{1, 2} {
		reps := make([]Replica, n)
		for i := range reps {
			reps[i] = Replica{Backend: stub}
		}
		set, err := NewSet("inline", 1, reps, Config{})
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := set.Search(ctx, queries, engine.SearchOptions{}); err != nil {
				t.Fatal(err)
			}
		})
		set.Close()
		if allocs > 1 {
			t.Errorf("%d replicas: %.1f allocations per Search, want <= 1", n, allocs)
		}
	}
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
	rb, err := remote.DialTimeout(srv.addr(), db.Checksum(), 0)
	if err != nil {
		t.Fatal(err)
	}
	local, err := engine.New(db, ecfg)
	if err != nil {
		t.Fatal(err)
	}
	set, err := NewSet("redial", db.Checksum(), []Replica{
		{Backend: rb, Redial: func() (engine.Backend, error) {
			return remote.DialTimeout(addr.Load().(string), db.Checksum(), 0)
		}},
		{Backend: local},
	}, Config{redialBase: 5 * time.Millisecond, redialMax: 50 * time.Millisecond})
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
// answers, not preserve them — even when a sibling serves the slice.
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
	if _, err := NewSet("skew", a.Checksum(), []Replica{{Backend: a}, {Backend: b}}, Config{}); err == nil {
		t.Fatal("skewed replicas accepted")
	} else if !strings.Contains(err.Error(), "replica 1") || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("skew error does not name the replica and the checksum: %v", err)
	}
	// And against the caller's own expectation.
	if _, err := NewSet("skew", db.Checksum(), []Replica{{Backend: a}}, Config{}); err == nil {
		t.Fatal("replica with wrong checksum accepted against the set's checksum")
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

// TestNewSetStartsDownAndRefusesMismatches: a replica's first attempt
// is judged like every redial. One that fails as down leaves the set
// built, dark and re-dialing, so a set may start with no live replica;
// one that fails for any other reason fails construction, naming the
// replica, even beside a live sibling. A set without replicas is
// refused.
func TestNewSetStartsDownAndRefusesMismatches(t *testing.T) {
	lost := func() (engine.Backend, error) { return nil, fmt.Errorf("dial: %w", remote.ErrConnectionLost) }
	set, err := NewSet("shard 1 [4,8)", 1, []Replica{{Redial: lost}, {Redial: lost}},
		Config{Index: 1, redialBase: time.Millisecond, redialMax: 5 * time.Millisecond})
	if err != nil {
		t.Fatalf("all-down set refused: %v", err)
	}
	if set.Healthy() != 0 || set.Alphabet() != nil {
		t.Fatalf("all-down set: %d healthy, alphabet %v; want none before a replica joins", set.Healthy(), set.Alphabet())
	}
	queries := synth.RandomSet(alphabet.Protein, 1, 20, 30, 7701)
	var dark *ErrRangeUnavailable
	if _, err := set.Search(context.Background(), queries, engine.SearchOptions{}); !errors.As(err, &dark) || dark.Index != 1 || dark.Replicas != 2 {
		t.Fatalf("search over an all-down set: %v, want ErrRangeUnavailable for range 1 of 2 replicas", err)
	}
	set.Close()

	if _, err := NewSet("shard 0 [0,4)", 1, []Replica{
		{Backend: stubBackend{}},
		{Redial: func() (engine.Backend, error) { return nil, errors.New("server speaks wire version 1") }},
	}, Config{}); err == nil || !strings.Contains(err.Error(), "replica 1: server speaks wire version 1") {
		t.Fatalf("refused replica next to a live sibling: %v, want a construction error naming it", err)
	}
	if _, err := NewSet("empty", 0, nil, Config{}); err == nil {
		t.Fatal("empty set accepted")
	}
}

// TestRedialRefusalNamesTheCause: a dark range says why. While its only
// replica's redials are refused — the server answers with another slice
// — the range's error carries the refusal; once the server stops
// answering, it is down again with no cause; once it answers with the
// slice, it joins.
func TestRedialRefusalNamesTheCause(t *testing.T) {
	var mode atomic.Int32 // 0 down, 1 refused (checksum 1), 2 admitted (checksum 2)
	redial := func() (engine.Backend, error) {
		switch mode.Load() {
		case 0:
			return nil, fmt.Errorf("dial: %w", remote.ErrConnectionLost)
		case 1:
			return stubBackend{}, nil
		}
		return checksumBackend{stubBackend{}, 2}, nil
	}
	set, err := NewSet("shard 1 [4,8)", 2, []Replica{{Redial: redial}},
		Config{Index: 1, redialBase: time.Millisecond, redialMax: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	queries := synth.RandomSet(alphabet.Protein, 1, 20, 30, 7801)
	// await searches until the range's error is want, "" once it answers.
	await := func(want string) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			_, err := set.Search(context.Background(), queries, engine.SearchOptions{})
			got := ""
			if err != nil {
				got = err.Error()
			}
			if got == want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("range error %q, want %q", got, want)
			}
		}
	}
	await("replica shard 1 [4,8): all 1 replicas down (reconnecting)")
	mode.Store(1)
	await("replica shard 1 [4,8): all 1 replicas unavailable: replica 0 refused on redial: database checksum 00000001, want 00000002 (a different slice or database?)")
	var dark *ErrRangeUnavailable
	if _, err := set.Search(context.Background(), queries, engine.SearchOptions{}); !errors.As(err, &dark) ||
		dark.Reason() != "all 1 replicas unavailable: replica 0 refused on redial: database checksum 00000001, want 00000002 (a different slice or database?)" {
		t.Fatalf("reason of %v, want the refusal without the range", err)
	}
	mode.Store(0)
	await("replica shard 1 [4,8): all 1 replicas down (reconnecting)")
	mode.Store(2)
	await("")
}

// checksumBackend is a stub serving another checksum.
type checksumBackend struct {
	stubBackend
	sum uint32
}

func (b checksumBackend) Checksum() uint32 { return b.sum }
