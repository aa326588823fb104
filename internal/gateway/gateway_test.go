package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"swdual/internal/alphabet"
	"swdual/internal/engine"
	"swdual/internal/master"
	"swdual/internal/replica"
	"swdual/internal/seq"
	"swdual/internal/shard"
	"swdual/internal/synth"
)

// waitFor polls cond until it holds or the deadline passes — a bounded
// convergence loop on observable state, never a fixed sleep, so every
// test in this package is deterministic in outcome.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func testDB(n int, seed int64) *seq.Set {
	return synth.RandomSet(alphabet.Protein, n, 10, 80, seed)
}

func testEngine(t *testing.T, db *seq.Set) *engine.Searcher {
	t.Helper()
	e, err := engine.New(db, engine.Config{Pool: master.PoolSpec{CPU: 2}, TopK: 5})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// gateBackend wraps a real backend but holds every Search at the gate:
// each call announces its ctx on started, then waits for one release
// token (or its ctx to die) before delegating. Tests use it to pin the
// gateway's execution slots open deterministically.
type gateBackend struct {
	engine.Backend
	started chan context.Context
	release chan struct{}
}

func newGateBackend(inner engine.Backend) *gateBackend {
	return &gateBackend{
		Backend: inner,
		started: make(chan context.Context, 1024),
		release: make(chan struct{}, 1024),
	}
}

func (b *gateBackend) Search(ctx context.Context, queries *seq.Set, opts engine.SearchOptions) (*master.Report, error) {
	b.started <- ctx
	select {
	case <-b.release:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return b.Backend.Search(ctx, queries, opts)
}

// newTestGateway builds a gateway with admission limits lim over be
// and serves it on an httptest.Server, both torn down with the test.
func newTestGateway(t *testing.T, be engine.Backend, lim limits) (*Gateway, *httptest.Server) {
	t.Helper()
	g := newGateway(be, Config{}, lim)
	srv := httptest.NewServer(g)
	t.Cleanup(srv.Close)
	t.Cleanup(func() { g.Close() })
	return g, srv
}

// queriesJSON renders a query set as a POST /v1/search body.
func queriesJSON(t *testing.T, queries *seq.Set, topK int) []byte {
	t.Helper()
	req := SearchRequest{TopK: topK}
	for i := range queries.Seqs {
		req.Queries = append(req.Queries, Query{
			ID:       queries.Seqs[i].ID,
			Residues: queries.Alpha.DecodeString(queries.Seqs[i].Residues),
		})
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// post sends one search and returns the status, decoded body (for
// 200s and 206s), the raw body, and the Retry-After header.
func post(t *testing.T, client *http.Client, url string, body []byte, header map[string]string) (int, *SearchResponse, []byte, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/search", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var sr *SearchResponse
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusPartialContent {
		sr = new(SearchResponse)
		if err := json.Unmarshal(raw, sr); err != nil {
			t.Fatalf("%d body did not decode: %v\n%s", resp.StatusCode, err, raw)
		}
	}
	return resp.StatusCode, sr, raw, resp.Header.Get("Retry-After")
}

// sameHits asserts the gateway's JSON hits are byte-identical (index,
// id, score, order) to a direct backend report.
func sameHits(t *testing.T, label string, got *SearchResponse, want *master.Report) {
	t.Helper()
	if len(got.Results) != len(want.Results) {
		t.Fatalf("%s: %d results, want %d", label, len(got.Results), len(want.Results))
	}
	for qi := range want.Results {
		wh := want.Results[qi].Hits
		gh := got.Results[qi].Hits
		if len(gh) != len(wh) {
			t.Fatalf("%s: query %d: %d hits, want %d", label, qi, len(gh), len(wh))
		}
		for j := range wh {
			if gh[j].SeqIndex != wh[j].SeqIndex || gh[j].SeqID != wh[j].SeqID || gh[j].Score != wh[j].Score {
				t.Fatalf("%s: query %d hit %d: got %+v, want %+v", label, qi, j, gh[j], wh[j])
			}
		}
	}
}

// TestGatewayMatchesDirectSearch proves the acceptance criterion:
// gateway-served hits are byte-identical to direct Searcher.Search over
// an in-process engine, a sharded facade, and a replicated set.
func TestGatewayMatchesDirectSearch(t *testing.T) {
	db := testDB(40, 900)
	queries := synth.RandomSet(alphabet.Protein, 3, 20, 60, 901)

	backends := []struct {
		name  string
		build func(t *testing.T) engine.Backend
	}{
		{"engine", func(t *testing.T) engine.Backend { return testEngine(t, db) }},
		{"sharded", func(t *testing.T) engine.Backend {
			ranges := shard.RangesFor(db, 3, shard.BalancedResidues)
			backends := make([]engine.Backend, len(ranges))
			for i, r := range ranges {
				backends[i] = testEngine(t, db.Slice(r.Lo, r.Hi))
			}
			s, err := shard.WithBackends(db, shard.BalancedResidues, ranges, backends, 5)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { s.Close() })
			return s
		}},
		{"replicated", func(t *testing.T) engine.Backend {
			r1 := testEngine(t, db)
			r2 := testEngine(t, db)
			set, err := replica.NewSet("range 0", db.Checksum(), []replica.Replica{{Backend: r1}, {Backend: r2}}, replica.Config{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { set.Close() })
			return set
		}},
	}
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			be := b.build(t)
			_, srv := newTestGateway(t, be, limits{capacity: 4, queue: 16, clientSlots: 5})
			want, err := be.Search(context.Background(), queries, engine.SearchOptions{TopK: 5})
			if err != nil {
				t.Fatal(err)
			}
			code, got, raw, _ := post(t, srv.Client(), srv.URL, queriesJSON(t, queries, 5), nil)
			if code != http.StatusOK {
				t.Fatalf("status %d: %s", code, raw)
			}
			sameHits(t, b.name, got, want)
			for qi := range queries.Seqs {
				if got.Results[qi].ID != queries.Seqs[qi].ID {
					t.Fatalf("query %d answered as %q", qi, got.Results[qi].ID)
				}
			}
		})
	}
}

// TestPerClientFairness pins one client's search at the gate and shows
// its second request is shed by the per-client bound — with capacity
// to spare — while a different client is admitted.
func TestPerClientFairness(t *testing.T) {
	be := newGateBackend(testEngine(t, testDB(20, 910)))
	g, srv := newTestGateway(t, be, limits{capacity: 4, queue: 4, clientSlots: 1})
	body := queriesJSON(t, synth.RandomSet(alphabet.Protein, 1, 20, 40, 911), 0)

	aDone := make(chan int, 1)
	go func() {
		code, _, _, _ := post(t, srv.Client(), srv.URL, body, map[string]string{"X-API-Key": "tenant-a"})
		aDone <- code
	}()
	<-be.started // tenant A's first search is executing (pinned)

	code, _, raw, retry := post(t, srv.Client(), srv.URL, body, map[string]string{"X-API-Key": "tenant-a"})
	if code != http.StatusTooManyRequests {
		t.Fatalf("second tenant-a request: status %d (%s), want 429", code, raw)
	}
	if retry == "" {
		t.Fatal("shed answer missing Retry-After")
	}
	var er ErrorResponse
	if err := json.Unmarshal(raw, &er); err != nil || er.RetryAfterSeconds < 1 {
		t.Fatalf("shed body %s (err %v)", raw, err)
	}

	bDone := make(chan int, 1)
	go func() {
		code, _, _, _ := post(t, srv.Client(), srv.URL, body, map[string]string{"X-API-Key": "tenant-b"})
		bDone <- code
	}()
	<-be.started // tenant B admitted despite A's pinned search

	be.release <- struct{}{}
	be.release <- struct{}{}
	if code := <-aDone; code != http.StatusOK {
		t.Fatalf("tenant A first request: %d", code)
	}
	if code := <-bDone; code != http.StatusOK {
		t.Fatalf("tenant B request: %d", code)
	}
	c := g.Counters()
	if c.ShedClient != 1 || c.ShedQueue != 0 || c.Admitted != 2 {
		t.Fatalf("counters: %+v", c)
	}
}

// TestDeadlinePropagatesIntoSearchCtx sends timeouts via the body field
// and the header and checks the backend's ctx expires — answered 504 —
// without any release of the gate.
func TestDeadlinePropagatesIntoSearchCtx(t *testing.T) {
	be := newGateBackend(testEngine(t, testDB(20, 920)))
	g, srv := newTestGateway(t, be, limits{capacity: 2, queue: 8, clientSlots: 2})
	queries := synth.RandomSet(alphabet.Protein, 1, 20, 40, 921)

	req := SearchRequest{TimeoutMillis: 50}
	for i := range queries.Seqs {
		req.Queries = append(req.Queries, Query{Residues: queries.Alpha.DecodeString(queries.Seqs[i].Residues)})
	}
	body, _ := json.Marshal(req)
	code, _, raw, _ := post(t, srv.Client(), srv.URL, body, nil)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("timeout_ms search: status %d (%s), want 504", code, raw)
	}
	ctx := <-be.started
	if _, ok := ctx.Deadline(); !ok {
		t.Fatal("backend ctx had no deadline")
	}
	if ctx.Err() == nil {
		t.Fatal("backend ctx still alive after 504")
	}

	code, _, raw, _ = post(t, srv.Client(), srv.URL, queriesJSON(t, queries, 0), map[string]string{"Request-Timeout": "50ms"})
	if code != http.StatusGatewayTimeout {
		t.Fatalf("Request-Timeout search: status %d (%s), want 504", code, raw)
	}
	<-be.started
	if c := g.Counters(); c.TimedOut != 2 {
		t.Fatalf("counters: %+v", c)
	}
}

// TestMalformedRequests table-drives the 4xx surface, the size rows one
// past the gateway's fixed request limits.
func TestMalformedRequests(t *testing.T) {
	_, srv := newTestGateway(t, testEngine(t, testDB(20, 930)), limits{capacity: 2, queue: 8, clientSlots: 2})
	cases := []struct {
		name   string
		body   string
		header map[string]string
		want   int
	}{
		{"bad json", `{"queries":`, nil, http.StatusBadRequest},
		{"no queries", `{}`, nil, http.StatusBadRequest},
		{"empty queries", `{"queries":[]}`, nil, http.StatusBadRequest},
		{"empty residues", `{"queries":[{"residues":""}]}`, nil, http.StatusBadRequest},
		{"bad residues", `{"queries":[{"residues":"NOT A PROTEIN 123!"}]}`, nil, http.StatusBadRequest},
		{"negative topk", `{"queries":[{"residues":"MKV"}],"top_k":-1}`, nil, http.StatusBadRequest},
		{"negative timeout", `{"queries":[{"residues":"MKV"}],"timeout_ms":-5}`, nil, http.StatusBadRequest},
		{"too many queries", `{"queries":[` + strings.Repeat(`{"residues":"M"},`, maxQueries) + `{"residues":"M"}]}`, nil, http.StatusRequestEntityTooLarge},
		{"residues over limit", fmt.Sprintf(`{"queries":[{"residues":"%s"}]}`, strings.Repeat("M", maxQueryResidues+1)), nil, http.StatusRequestEntityTooLarge},
		{"body over limit", `{"queries":[{"residues":"MKV"}]}` + strings.Repeat(" ", maxBodyBytes+1-len(`{"queries":[{"residues":"MKV"}]}`)), nil, http.StatusRequestEntityTooLarge},
		{"bad header timeout", `{"queries":[{"residues":"MKV"}]}`, map[string]string{"Request-Timeout": "soon"}, http.StatusBadRequest},
		// Deadlines past math.MaxInt64 ns would wrap into a tiny or negative
		// time.Duration.
		{"header timeout overflows", `{"queries":[{"residues":"MKV"}]}`, map[string]string{"Request-Timeout": "18446744074"}, http.StatusBadRequest},
		{"body timeout overflows", `{"queries":[{"residues":"MKV"}],"timeout_ms":18446744073710}`, nil, http.StatusBadRequest},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			code, _, raw, _ := post(t, srv.Client(), srv.URL, []byte(c.body), c.header)
			if code != c.want {
				t.Fatalf("status %d (%s), want %d", code, raw, c.want)
			}
			var er ErrorResponse
			if err := json.Unmarshal(raw, &er); err != nil || er.Error == "" {
				t.Fatalf("error body %s (err %v)", raw, err)
			}
		})
	}

	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/v1/search", nil)
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/search: %d, want 405", resp.StatusCode)
	}
}

// TestStatsHealthzMetrics drives the observability endpoints after a
// real search round.
func TestStatsHealthzMetrics(t *testing.T) {
	g := newGateway(testEngine(t, testDB(20, 940)), Config{DBMappedBytes: 123456}, limits{capacity: 2, queue: 8, clientSlots: 2})
	srv := httptest.NewServer(g)
	defer srv.Close()
	defer g.Close()
	body := queriesJSON(t, synth.RandomSet(alphabet.Protein, 2, 20, 40, 941), 0)
	if code, _, raw, _ := post(t, srv.Client(), srv.URL, body, nil); code != http.StatusOK {
		t.Fatalf("search: %d (%s)", code, raw)
	}

	resp, err := srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(hb) != "ok\n" {
		t.Fatalf("healthz: %d %q", resp.StatusCode, hb)
	}

	resp, err = srv.Client().Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Gateway.Completed != 1 || st.Gateway.Admitted != 1 {
		t.Fatalf("gateway stats: %+v", st.Gateway)
	}
	if st.Engine.Searches != 1 || st.Engine.Queries != 2 {
		t.Fatalf("engine stats: %+v", st.Engine)
	}

	runtime.GC() // at least one completed cycle for the process gauges below
	resp, err = srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	metrics := string(mb)
	for _, want := range []string{
		"swdual_gateway_admitted_total 1",
		"swdual_gateway_completed_total 1",
		"swdual_gateway_queue_depth 0",
		"swdual_engine_searches_total 1",
		"swdual_engine_failed_over_total 0",
		"swdual_process_heap_inuse_bytes",
		"swdual_process_gc_pauses_total",
		"swdual_process_db_mapped_bytes 123456",
		`swdual_worker_observed_gcups{worker="cpu-0"}`,
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}
	for _, name := range []string{"swdual_process_heap_inuse_bytes", "swdual_process_gc_pauses_total"} {
		var v float64
		_, line, _ := strings.Cut(metrics, "\n"+name+" ")
		if _, err := fmt.Sscan(line, &v); err != nil || v <= 0 {
			t.Fatalf("%s = %v (%v) after a forced GC, want > 0:\n%s", name, v, err, metrics)
		}
	}
}

// fixedStats is a backend whose Stats is a fixed snapshot.
type fixedStats struct {
	engine.Backend
	st engine.Stats
}

func (b *fixedStats) Stats() engine.Stats { return b.st }

// TestMetricsEngineNamesGolden pins every swdual_engine_* series on
// /metrics — names and values — against a backend snapshot whose
// counters all differ, so iterating engine.Counters renders exactly the
// names dashboards and CI already read — and the always-zero
// HedgedSearches, set here anyway, renders nothing.
func TestMetricsEngineNamesGolden(t *testing.T) {
	st := engine.Stats{DBSequences: 20, DBResidues: 900, Searches: 1, Queries: 2, Waves: 3, BatchedWaves: 4,
		CacheHits: 5, CacheMisses: 6, CacheEvictions: 7, HedgedSearches: 9,
		FailedOver: 10, Redials: 11, DegradedSearches: 12}
	_, srv := newTestGateway(t, &fixedStats{Backend: testEngine(t, testDB(20, 960)), st: st}, hostLimits())
	golden := map[string]string{
		"swdual_engine_db_sequences":            "20",
		"swdual_engine_db_residues":             "900",
		"swdual_engine_searches_total":          "1",
		"swdual_engine_queries_total":           "2",
		"swdual_engine_waves_total":             "3",
		"swdual_engine_batched_waves_total":     "4",
		"swdual_engine_cache_hits_total":        "5",
		"swdual_engine_cache_misses_total":      "6",
		"swdual_engine_cache_evictions_total":   "7",
		"swdual_engine_failed_over_total":       "10",
		"swdual_engine_redials_total":           "11",
		"swdual_engine_degraded_searches_total": "12",
	}
	got := map[string]string{}
	for _, line := range strings.Split(scrape(t, srv, srv.URL), "\n") {
		if name, value, ok := strings.Cut(line, " "); ok && strings.HasPrefix(name, "swdual_engine_") {
			if _, dup := got[name]; dup {
				t.Fatalf("%s rendered twice", name)
			}
			got[name] = value
		}
	}
	if !reflect.DeepEqual(got, golden) {
		t.Fatalf("engine series on /metrics:\n got %v\nwant %v", got, golden)
	}
}

// TestConfigValidation rejects a nil backend and pins the admission
// limits New derives from the host: 2×GOMAXPROCS executing, four times
// that waiting, a quarter of all slots per client.
func TestConfigValidation(t *testing.T) {
	e := testEngine(t, testDB(10, 950))
	if _, err := New(nil, Config{}); err == nil {
		t.Fatal("nil backend accepted")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range []struct {
		procs int
		want  limits
	}{
		{1, limits{capacity: 2, queue: 8, clientSlots: 2}},
		{2, limits{capacity: 4, queue: 16, clientSlots: 5}},
		{3, limits{capacity: 6, queue: 24, clientSlots: 7}},
		{8, limits{capacity: 16, queue: 64, clientSlots: 20}},
	} {
		runtime.GOMAXPROCS(c.procs)
		g, err := New(e, Config{})
		if err != nil {
			t.Fatal(err)
		}
		g.Close()
		if g.lim != c.want || cap(g.sem) != c.want.capacity {
			t.Fatalf("GOMAXPROCS %d: limits %+v (%d tokens), want %+v", c.procs, g.lim, cap(g.sem), c.want)
		}
	}
}
