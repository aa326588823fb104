package swdual

// The public-API half of the partial-answer suite lives in the package
// itself (not swdual_test) so it can assemble a Searcher over a
// fault-injected cluster as well as over real shard servers, and read
// the ranges the coordinator split the database into.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"swdual/internal/engine"
	"swdual/internal/faultinject"
	"swdual/internal/master"
	"swdual/internal/replica"
	"swdual/internal/shard"
)

// ShardServer is a ServeShard goroutine whose accepted connections are
// tracked, so a test can sever them all — the observable effect of the
// server process dying. The swdual_test suite uses it too.
type ShardServer struct {
	net.Listener
	mu    sync.Mutex
	conns []net.Conn
}

func (s *ShardServer) Accept() (net.Conn, error) {
	nc, err := s.Listener.Accept()
	if err == nil {
		s.mu.Lock()
		s.conns = append(s.conns, nc)
		s.mu.Unlock()
	}
	return nc, err
}

// Accepted counts the connections accepted and not yet severed by Kill.
func (s *ShardServer) Accepted() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// Kill closes the listener and severs every accepted connection.
func (s *ShardServer) Kill() {
	s.Listener.Close()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, nc := range s.conns {
		nc.Close()
	}
	s.conns = nil
}

// StartShardServer serves slice index of db on addr until killed (at
// the latest at test cleanup).
func StartShardServer(t *testing.T, addr string, db *Database, index, count int, opt Options) *ShardServer {
	t.Helper()
	l, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	s := &ShardServer{Listener: l}
	go ServeShard(s, db, index, count, opt)
	t.Cleanup(s.Kill)
	return s
}

// serveShards serves every slice of a count-way split of db from its own
// loopback ShardServer and returns them with the one-address-per-range
// ReplicaShards that reaches them.
func serveShards(t *testing.T, db *Database, count int, opt Options) ([][]string, []*ShardServer) {
	t.Helper()
	var groups [][]string
	var servers []*ShardServer
	for i := 0; i < count; i++ {
		srv := StartShardServer(t, "127.0.0.1:0", db, i, count, opt)
		groups = append(groups, []string{srv.Addr().String()})
		servers = append(servers, srv)
	}
	return groups, servers
}

// TestDarkRangeAnswersPartial: a coordinator given nothing but
// ReplicaShards rides over a range whose only server died after
// construction. The answer's Coverage names exactly that range, the
// surviving hits are byte-identical to a local search of the other
// range, and once every range is dark the search fails with the typed
// replica.ErrRangeUnavailable.
func TestDarkRangeAnswersPartial(t *testing.T) {
	db, err := GenerateDatabase("UniProt", 40000)
	if err != nil {
		t.Fatal(err)
	}
	queries, err := GenerateQueries("standard", 400)
	if err != nil {
		t.Fatal(err)
	}
	groups, servers := serveShards(t, db, 2, Options{})
	s, err := NewSearcher(db, Options{ReplicaShards: groups})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()

	// Range 0 goes dark, so every surviving hit sits at an offset: the
	// merge must shift the other range's indices, and nothing else.
	servers[0].Kill()
	rep, err := s.Search(ctx, queries, SearchOptions{})
	if err != nil {
		t.Fatalf("search with range 0 dark: %v, want a partial answer", err)
	}
	ranges := shard.RangesFor(db.set, 2, shard.BalancedResidues)
	live := db.set.Slice(ranges[1].Lo, ranges[1].Hi)
	cov := rep.Coverage
	if cov == nil || cov.RangesSearched != 1 || cov.RangesTotal != 2 ||
		cov.ResiduesSearched != live.TotalResidues() || cov.ResiduesTotal != db.TotalResidues() {
		t.Fatalf("coverage %+v, want range 1 of 2 searched (%d of %d residues)", cov, live.TotalResidues(), db.TotalResidues())
	}
	if len(cov.Skipped) != 1 || cov.Skipped[0].Index != 0 || cov.Skipped[0].Lo != 0 || cov.Skipped[0].Hi != ranges[0].Hi ||
		!strings.HasPrefix(cov.Skipped[0].Reason, "all 1 replicas ") || strings.Contains(cov.Skipped[0].Reason, "shard") {
		t.Fatalf("skipped %+v, want exactly range 0 [0,%d), its reason not naming the range again", cov.Skipped, ranges[0].Hi)
	}
	want, err := Search(&Database{set: live}, queries, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sameShiftedHits(t, "range 0 dark", rep, want, ranges[1].Lo)

	servers[1].Kill()
	var down *replica.ErrRangeUnavailable
	if _, err := s.Search(ctx, queries, SearchOptions{}); !errors.As(err, &down) || down.Index != 0 || down.Replicas != 1 {
		t.Fatalf("search with every range dark: %v, want a replica.ErrRangeUnavailable for range 0 of 1 replica", err)
	}
}

// sameShiftedHits fails unless got's hits are want's, query by query,
// with every SeqIndex shifted by off: a search of one slice seen from the
// whole database.
func sameShiftedHits(t *testing.T, label string, got, want *Report, off int) {
	t.Helper()
	if len(got.Results) != len(want.Results) {
		t.Fatalf("%s: %d query results, want %d", label, len(got.Results), len(want.Results))
	}
	for qi := range want.Results {
		g, w := got.Results[qi].Hits, want.Results[qi].Hits
		if len(g) != len(w) {
			t.Fatalf("%s query %d: %d hits, want %d", label, qi, len(g), len(w))
		}
		for i, h := range w {
			h.SeqIndex += off
			if g[i] != h {
				t.Fatalf("%s query %d hit %d: %+v, want %+v", label, qi, i, g[i], h)
			}
		}
	}
}

// redialLoops counts the replica redial goroutines alive in the process.
func redialLoops() int {
	buf := make([]byte, 1<<20)
	return bytes.Count(buf[:runtime.Stack(buf, true)], []byte("replica.(*Set).redialLoop("))
}

// redialLoopsAfterClose counts the redial loops still alive once those
// above want have had 5 s to unwind. Close returns when every loop has
// run its deferred WaitGroup Done, which is before the loop's frame
// leaves the goroutine's stack: counted at once, a loop that has already
// stopped can still show.
func redialLoopsAfterClose(want int) int {
	n := redialLoops()
	for deadline := time.Now().Add(5 * time.Second); n > want && time.Now().Before(deadline); n = redialLoops() {
		time.Sleep(time.Millisecond)
	}
	return n
}

// TestStartPatternsFollowOneRule is the model of the one admission rule
// at construction: 2 ranges × 2 replicas, each a live server or a dead
// port, all 16 patterns built through NewSearcher. The answer is full
// and byte-identical to an unsharded search iff every range has a live
// replica. Otherwise it is a partial answer whose Coverage names exactly
// the dark range, with survivor hits equal to a local search of the
// other slice, and with every range dark it is a
// replica.ErrRangeUnavailable. Close leaves no redial loop behind. Last,
// a range dark at construction comes up when its server starts: a later
// search on the same Searcher is full.
func TestStartPatternsFollowOneRule(t *testing.T) {
	db, err := GenerateDatabase("UniProt", 40000)
	if err != nil {
		t.Fatal(err)
	}
	queries, err := GenerateQueries("standard", 400)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Pool: "cpu=1", TopK: 5, DialTimeout: 5 * time.Second}
	full, err := Search(db, queries, opt)
	if err != nil {
		t.Fatal(err)
	}
	ranges := shard.RangesFor(db.set, 2, shard.BalancedResidues)
	var sliceHits [2]*Report // each slice searched alone
	var live [2][2]string
	for i, r := range ranges {
		if sliceHits[i], err = Search(&Database{set: db.set.Slice(r.Lo, r.Hi)}, queries, opt); err != nil {
			t.Fatal(err)
		}
		for j := range live[i] {
			live[i][j] = StartShardServer(t, "127.0.0.1:0", db, i, 2, opt).Addr().String()
		}
	}
	// An address nobody listens on: reserve a port, then free it.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := l.Addr().String()
	l.Close()

	ctx := context.Background()
	for pattern := 0; pattern < 16; pattern++ {
		label := fmt.Sprintf("pattern %04b", pattern) // bit 2i+j: replica j of range i is live
		coord := opt
		coord.ReplicaShards = [][]string{{dead, dead}, {dead, dead}}
		var dark []int
		for i := range live {
			for j := range live[i] {
				if pattern&(1<<(2*i+j)) != 0 {
					coord.ReplicaShards[i][j] = live[i][j]
				}
			}
			if pattern>>(2*i)&3 == 0 {
				dark = append(dark, i)
			}
		}
		before := redialLoops()
		s, err := NewSearcher(db, coord)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		rep, err := s.Search(ctx, queries, SearchOptions{})
		switch len(dark) {
		case 0:
			if err != nil || rep.Coverage != nil {
				t.Fatalf("%s: %v, coverage %+v; want a full answer", label, err, rep.Coverage)
			}
			sameShiftedHits(t, label, rep, full, 0)
		case 1:
			if err != nil {
				t.Fatalf("%s: %v, want a partial answer", label, err)
			}
			d, up := ranges[dark[0]], 1-dark[0]
			cov := rep.Coverage
			if cov == nil || cov.RangesSearched != 1 || cov.RangesTotal != 2 || len(cov.Skipped) != 1 ||
				cov.Skipped[0].Index != dark[0] || cov.Skipped[0].Lo != d.Lo || cov.Skipped[0].Hi != d.Hi {
				t.Fatalf("%s: coverage %+v, want exactly range %d [%d,%d) skipped", label, cov, dark[0], d.Lo, d.Hi)
			}
			sameShiftedHits(t, label, rep, sliceHits[up], ranges[up].Lo)
		case 2:
			var down *replica.ErrRangeUnavailable
			if !errors.As(err, &down) {
				t.Fatalf("%s: %v, want a replica.ErrRangeUnavailable", label, err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatalf("%s: close: %v", label, err)
		}
		if n := redialLoopsAfterClose(before); n > before {
			t.Fatalf("%s: %d redial loops after Close, %d before NewSearcher", label, n, before)
		}
	}

	coord := opt
	coord.ReplicaShards = [][]string{{dead}, {live[1][0]}}
	s, err := NewSearcher(db, coord)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if rep, err := s.Search(ctx, queries, SearchOptions{}); err != nil || rep.Coverage == nil {
		t.Fatalf("search before range 0's server starts: %v, want a partial answer", err)
	}
	StartShardServer(t, dead, db, 0, 2, opt)
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		rep, err := s.Search(ctx, queries, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Coverage == nil {
			sameShiftedHits(t, "range 0 up", rep, full, 0)
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("still partial 30s after range 0's server started: %+v", rep.Coverage)
		}
	}
}

// TestDegradedOptionKeepsFullAnswersIdentical is the public no-fault
// equivalence bar: with every shard server healthy, a coordinator's hits
// are byte-identical to an unsharded search's, and neither answer
// carries Coverage.
func TestDegradedOptionKeepsFullAnswersIdentical(t *testing.T) {
	db, err := GenerateDatabase("UniProt", 40000)
	if err != nil {
		t.Fatal(err)
	}
	queries, err := GenerateQueries("standard", 400)
	if err != nil {
		t.Fatal(err)
	}
	groups, _ := serveShards(t, db, 3, Options{Pool: "cpu=1", TopK: 5})
	var ref *Report
	for _, opt := range []Options{
		{Pool: "cpu=1", TopK: 5},
		{ReplicaShards: groups, Pool: "cpu=1", TopK: 5},
	} {
		s, err := NewSearcher(db, opt)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.Search(context.Background(), queries, SearchOptions{})
		s.Close()
		if err != nil {
			t.Fatalf("%+v: %v", opt, err)
		}
		if rep.Coverage != nil {
			t.Fatalf("%+v: healthy search carries Coverage %+v", opt, rep.Coverage)
		}
		if ref == nil {
			ref = rep
			continue
		}
		for qi := range rep.Results {
			got, want := rep.Results[qi].Hits, ref.Results[qi].Hits
			if len(got) != len(want) {
				t.Fatalf("%+v query %d: %d hits vs %d", opt, qi, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%+v query %d hit %d: %+v vs %+v", opt, qi, i, got[i], want[i])
				}
			}
		}
	}
}

// TestDegradedCoverageSurfacesThroughPublicAPI assembles a Searcher
// whose sharded coordinator sits over fault-injected backends, scripts
// one range dark, and requires the partial answer — Coverage and the
// degraded counter — to surface unchanged through Searcher.Search,
// Searcher.Stats, and an HTTP Gateway (206 with a coverage block).
func TestDegradedCoverageSurfacesThroughPublicAPI(t *testing.T) {
	db, err := GenerateDatabase("UniProt", 40000)
	if err != nil {
		t.Fatal(err)
	}
	queries, err := GenerateQueries("standard", 400)
	if err != nil {
		t.Fatal(err)
	}
	const topK = 3
	ranges := shard.RangesFor(db.set, 2, shard.BalancedResidues)
	wrappers := make([]*faultinject.Backend, len(ranges))
	backends := make([]engine.Backend, len(ranges))
	for i, r := range ranges {
		eng, err := engine.New(db.set.Slice(r.Lo, r.Hi), engine.Config{Pool: master.PoolSpec{CPU: 1}, TopK: topK})
		if err != nil {
			t.Fatal(err)
		}
		wrappers[i] = faultinject.Wrap(eng)
		backends[i] = wrappers[i]
	}
	sh, err := shard.WithBackends(db.set, shard.BalancedResidues, ranges, backends, topK)
	if err != nil {
		t.Fatal(err)
	}
	s := &Searcher{inner: sh, db: db, shards: len(ranges)}
	defer s.Close()

	// Every search loses range 1 (Count 0 = every call), so both the
	// direct Search and the gateway request below degrade.
	wrappers[1].SetRules(faultinject.Rule{Op: faultinject.OpSearch, Fault: faultinject.Fault{
		Err: &replica.ErrRangeUnavailable{
			Range: fmt.Sprintf("shard 1 [%d,%d)", ranges[1].Lo, ranges[1].Hi),
			Index: 1, Replicas: 2, Cause: "injected: connection lost",
		},
	}})

	rep, err := s.Search(context.Background(), queries, SearchOptions{})
	if err != nil {
		t.Fatalf("public degraded search failed: %v", err)
	}
	if rep.Coverage == nil {
		t.Fatal("public Report carries no Coverage")
	}
	if rep.Coverage.RangesSearched != 1 || rep.Coverage.RangesTotal != 2 || len(rep.Coverage.Skipped) != 1 {
		t.Fatalf("coverage %+v", rep.Coverage)
	}
	if f := rep.Coverage.Fraction(); f <= 0 || f >= 1 {
		t.Fatalf("fraction %v, want strictly inside (0,1)", f)
	}
	if st := s.Stats(); st.DegradedSearches != 1 {
		t.Fatalf("public Stats DegradedSearches = %d, want 1", st.DegradedSearches)
	}

	gw, err := NewGateway(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	srv := httptest.NewServer(gw)
	defer srv.Close()

	type query struct {
		ID       string `json:"id"`
		Residues string `json:"residues"`
	}
	req := struct {
		Queries []query `json:"queries"`
		TopK    int     `json:"top_k,omitempty"`
	}{TopK: topK}
	for i := 0; i < queries.Len(); i++ {
		id, residues := queries.Sequence(i)
		req.Queries = append(req.Queries, query{ID: id, Residues: residues})
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/search", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusPartialContent {
		t.Fatalf("gateway answered %d (%s), want 206", resp.StatusCode, buf.Bytes())
	}
	var decoded struct {
		Coverage *struct {
			RangesSearched int     `json:"ranges_searched"`
			RangesTotal    int     `json:"ranges_total"`
			Fraction       float64 `json:"fraction"`
			Skipped        []struct {
				Index  int    `json:"index"`
				Reason string `json:"reason"`
			} `json:"skipped"`
		} `json:"coverage"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("206 body did not decode: %v\n%s", err, buf.Bytes())
	}
	if decoded.Coverage == nil {
		t.Fatalf("206 body has no coverage block: %s", buf.Bytes())
	}
	if decoded.Coverage.RangesSearched != 1 || decoded.Coverage.RangesTotal != 2 {
		t.Fatalf("gateway coverage %+v", decoded.Coverage)
	}
	if len(decoded.Coverage.Skipped) != 1 || decoded.Coverage.Skipped[0].Index != 1 ||
		!strings.Contains(decoded.Coverage.Skipped[0].Reason, "injected") {
		t.Fatalf("gateway skipped ranges %+v", decoded.Coverage.Skipped)
	}
	if c := gw.Counters(); c.Degraded != 1 {
		t.Fatalf("gateway counters %+v, want Degraded 1", c)
	}
}
