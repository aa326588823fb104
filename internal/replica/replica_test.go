package replica

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"swdual/internal/alphabet"
	"swdual/internal/engine"
	"swdual/internal/master"
	"swdual/internal/remote"
	"swdual/internal/seq"
	"swdual/internal/shard"
	"swdual/internal/synth"
)

// The replica suite proves that replicated searches are byte-identical
// to unsharded ones (replicas cannot change answers, only availability)
// and pins what the public stack cannot reach. Failover, redial and
// refusal over real servers are the root package's cluster model,
// FuzzClusterModel.

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
