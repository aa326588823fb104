package swdual

// This test lives in the package itself (not swdual_test) so it can
// assemble a Searcher over a fault-injected cluster. The partial answers
// of real shard servers are cluster_model_test.go's.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"swdual/internal/engine"
	"swdual/internal/faultinject"
	"swdual/internal/master"
	"swdual/internal/replica"
	"swdual/internal/shard"
)

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
