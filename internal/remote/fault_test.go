package remote

import (
	"context"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"swdual/internal/alphabet"
	"swdual/internal/engine"
	"swdual/internal/enginetest"
	"swdual/internal/master"
	"swdual/internal/sched"
	"swdual/internal/seq"
	"swdual/internal/shard"
	"swdual/internal/synth"
)

// Fault injection: a shard server dying mid-search must surface as a
// prompt, descriptive error at the coordinator — never a hang — with
// contexts canceled, Close idempotent, and no goroutine left behind.

// gateWorker blocks in Run until released, pinning a search in flight
// deterministically. Safe for any number of goroutines.
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
// server process dying.
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

// kill closes the listener and severs every accepted connection.
func (s *killableServer) kill() {
	s.l.Close()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, nc := range s.conns {
		nc.Close()
	}
	s.conns = nil
}

// TestRemoteSearchHonorsContext cancels a pinned remote search and
// requires the prompt context error, the connection staying usable for
// the next search, and the server-side request context being canceled.
func TestRemoteSearchHonorsContext(t *testing.T) {
	db := synth.RandomSet(alphabet.Protein, 10, 10, 60, 5101)
	queries := synth.RandomSet(alphabet.Protein, 3, 20, 50, 5102)
	gw := newGateWorker()
	srv := startKillableServer(t, db, engine.Config{
		Workers: []master.Worker{gw}, TopK: 3, Policy: master.PolicySelfScheduling,
	})
	b, err := DialTimeout(srv.addr(), db.Checksum(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := b.Search(ctx, queries, engine.SearchOptions{})
		done <- err
	}()
	<-gw.started
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("canceled remote search returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("canceled remote search did not return")
	}

	// Release the gate: the server finishes the canceled request (the
	// client discards the late answer) and must serve the next one.
	close(gw.release)
	rep, err := b.Search(context.Background(), queries, engine.SearchOptions{})
	if err != nil {
		t.Fatalf("search after cancellation: %v", err)
	}
	if len(rep.Results) != queries.Len() {
		t.Fatalf("%d results after cancellation, want %d", len(rep.Results), queries.Len())
	}
}

// TestBackendCloseIsIdempotent closes one Backend from several
// goroutines, then checks calls fail cleanly afterwards.
func TestBackendCloseIsIdempotent(t *testing.T) {
	db := synth.RandomSet(alphabet.Protein, 8, 10, 40, 5201)
	srv := startKillableServer(t, db, engine.Config{Pool: master.PoolSpec{CPU: 1}, TopK: 3})
	b, err := DialTimeout(srv.addr(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := b.Close(); err != nil {
				t.Errorf("close: %v", err)
			}
		}()
	}
	wg.Wait()
	if err := b.Close(); err != nil {
		t.Fatalf("close after close: %v", err)
	}
	queries := synth.RandomSet(alphabet.Protein, 1, 20, 30, 5202)
	if _, err := b.Search(context.Background(), queries, engine.SearchOptions{}); !errors.Is(err, ErrConnectionLost) {
		t.Fatalf("search on closed backend: %v, want ErrConnectionLost", err)
	}
}

// TestDialBackendsDoNotLeakGoroutines cycles dial/search/close and
// requires the goroutine count to return to its baseline — the read
// loop and the server-side session goroutines must all exit.
func TestDialBackendsDoNotLeakGoroutines(t *testing.T) {
	db := synth.RandomSet(alphabet.Protein, 10, 10, 60, 5301)
	srv := startKillableServer(t, db, engine.Config{Pool: master.PoolSpec{CPU: 1, GPU: 1}, TopK: 3})
	check := enginetest.LeakCheck(t)
	for i := 0; i < 5; i++ {
		b, err := DialTimeout(srv.addr(), db.Checksum(), 0)
		if err != nil {
			t.Fatal(err)
		}
		queries := synth.RandomSet(alphabet.Protein, 2, 20, 50, int64(5400+i))
		if _, err := b.Search(context.Background(), queries, engine.SearchOptions{}); err != nil {
			t.Fatal(err)
		}
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
	}
	check()
}

// TestTwoShardDeathsAttributeTheRealCause kills two shard servers in
// the same scatter. Regression: the gather used to return whichever
// error it saw first, so a shard canceled collaterally (context
// canceled after a sibling's real failure) could mask the root cause.
// Whichever shard loses the race, the surfaced error must name a shard
// and carry the lost connection — never a bare context error.
func TestTwoShardDeathsAttributeTheRealCause(t *testing.T) {
	for round := 0; round < 3; round++ {
		db := synth.RandomSet(alphabet.Protein, 18, 10, 60, int64(6001+round))
		queries := synth.RandomSet(alphabet.Protein, 3, 20, 50, int64(6101+round))
		gw0, gw1 := newGateWorker(), newGateWorker()
		ranges := shard.RangesFor(db, 3, shard.BalancedResidues)
		eng0, err := engine.New(db.Slice(ranges[0].Lo, ranges[0].Hi), engine.Config{Pool: master.PoolSpec{CPU: 1}, TopK: 3})
		if err != nil {
			t.Fatal(err)
		}
		srv1 := startKillableServer(t, db.Slice(ranges[1].Lo, ranges[1].Hi), engine.Config{
			Workers: []master.Worker{gw0}, TopK: 3, Policy: master.PolicySelfScheduling,
		})
		srv2 := startKillableServer(t, db.Slice(ranges[2].Lo, ranges[2].Hi), engine.Config{
			Workers: []master.Worker{gw1}, TopK: 3, Policy: master.PolicySelfScheduling,
		})
		rb1, err := DialTimeout(srv1.addr(), db.Slice(ranges[1].Lo, ranges[1].Hi).Checksum(), 0)
		if err != nil {
			t.Fatal(err)
		}
		rb2, err := DialTimeout(srv2.addr(), db.Slice(ranges[2].Lo, ranges[2].Hi).Checksum(), 0)
		if err != nil {
			t.Fatal(err)
		}
		s, err := shard.WithBackends(db, shard.BalancedResidues, ranges, []engine.Backend{eng0, rb1, rb2}, 3)
		if err != nil {
			t.Fatal(err)
		}

		done := make(chan error, 1)
		go func() {
			_, err := s.Search(context.Background(), queries, engine.SearchOptions{})
			done <- err
		}()
		<-gw0.started
		<-gw1.started // both remote shards provably hold the search
		srv1.kill()
		srv2.kill()
		select {
		case err := <-done:
			if err == nil {
				t.Fatal("search succeeded though two shard servers died")
			}
			msg := err.Error()
			if !strings.Contains(msg, "connection lost") {
				t.Fatalf("round %d: surfaced error is not the root cause: %v", round, err)
			}
			if !strings.Contains(msg, "shard 1") && !strings.Contains(msg, "shard 2") {
				t.Fatalf("round %d: error does not attribute a shard: %v", round, err)
			}
			if err == context.Canceled || strings.HasPrefix(msg, "context canceled") {
				t.Fatalf("round %d: collateral cancellation masked the cause: %v", round, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("coordinator hung on dead shard servers")
		}
		close(gw0.release)
		close(gw1.release)
		s.Close()
	}
}
