package gateway

import (
	"bytes"
	"context"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"

	"swdual/internal/alphabet"
	"swdual/internal/engine"
	"swdual/internal/master"
	"swdual/internal/seq"
	"swdual/internal/synth"
)

// coverBackend delegates to a real engine and, when armed, stamps a
// Coverage onto the answer — exactly what a degraded sharded
// coordinator hands the gateway, minus the cluster.
type coverBackend struct {
	engine.Backend
	cov *master.Coverage
}

func (b *coverBackend) Search(ctx context.Context, queries *seq.Set, opts engine.SearchOptions) (*master.Report, error) {
	rep, err := b.Backend.Search(ctx, queries, opts)
	if err == nil && b.cov != nil {
		cov := *b.cov
		rep.Coverage = &cov
	}
	return rep, err
}

// scrape fetches /metrics and returns the exposition text.
func scrape(t *testing.T, srv interface{ Client() *http.Client }, url string) string {
	t.Helper()
	resp, err := srv.Client().Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d (%s)", resp.StatusCode, raw)
	}
	return string(raw)
}

// TestGatewayAnswers206WithCoverage drives a degraded answer through
// the HTTP layer: status 206, hits byte-identical to the backend's
// report, a coverage block carrying the exact counts and reasons, the
// Degraded counter, and both Prometheus counters. Then the same
// backend answers full again and everything about the response —
// status, body shape — snaps back, with no coverage key at all.
func TestGatewayAnswers206WithCoverage(t *testing.T) {
	db := testDB(20, 980)
	e := testEngine(t, db)
	be := &coverBackend{Backend: e, cov: &master.Coverage{
		RangesSearched: 3, RangesTotal: 4,
		ResiduesSearched: 750, ResiduesTotal: 1000,
		Skipped: []master.SkippedRange{{Index: 2, Lo: 10, Hi: 15, Reason: "all 2 replicas unavailable: injected"}},
	}}
	g, srv := newTestGateway(t, be, limits{capacity: 2, queue: 2, clientSlots: 100})
	queries := synth.RandomSet(alphabet.Protein, 2, 20, 60, 981)
	body := queriesJSON(t, queries, 0)

	want, err := e.Search(t.Context(), queries, engine.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}

	code, resp, raw, _ := post(t, srv.Client(), srv.URL, body, nil)
	if code != http.StatusPartialContent {
		t.Fatalf("degraded answer status %d (%s), want 206", code, raw)
	}
	sameHits(t, "partial", resp, want)
	cov := resp.Coverage
	if cov == nil {
		t.Fatalf("206 body has no coverage block: %s", raw)
	}
	if cov.RangesSearched != 3 || cov.RangesTotal != 4 || cov.ResiduesSearched != 750 || cov.ResiduesTotal != 1000 {
		t.Fatalf("coverage %+v", cov)
	}
	if math.Abs(cov.Fraction-0.75) > 1e-9 {
		t.Fatalf("coverage fraction %v, want 0.75", cov.Fraction)
	}
	if len(cov.Skipped) != 1 {
		t.Fatalf("%d skipped ranges, want 1", len(cov.Skipped))
	}
	sk := cov.Skipped[0]
	if sk.Index != 2 || sk.Lo != 10 || sk.Hi != 15 || !strings.Contains(sk.Reason, "injected") {
		t.Fatalf("skipped range %+v", sk)
	}
	if c := g.Counters(); c.Degraded != 1 || c.Completed != 1 || c.Failed != 0 {
		t.Fatalf("counters after 206: %+v", c)
	}
	metrics := scrape(t, srv, srv.URL)
	if !strings.Contains(metrics, "swdual_gateway_degraded_total 1\n") {
		t.Fatalf("metrics missing the gateway degraded counter:\n%s", metrics)
	}
	if !strings.Contains(metrics, "swdual_engine_degraded_searches_total ") {
		t.Fatalf("metrics missing the engine degraded counter:\n%s", metrics)
	}

	// Recovery: disarm the coverage and the very same request is a plain
	// 200 whose body does not even mention coverage.
	be.cov = nil
	code, resp, raw, _ = post(t, srv.Client(), srv.URL, body, nil)
	if code != http.StatusOK {
		t.Fatalf("recovered answer status %d, want 200", code)
	}
	sameHits(t, "recovered", resp, want)
	if resp.Coverage != nil {
		t.Fatalf("full answer carries coverage: %+v", resp.Coverage)
	}
	if bytes.Contains(raw, []byte(`"coverage"`)) {
		t.Fatalf("full answer body mentions coverage: %s", raw)
	}
	if c := g.Counters(); c.Degraded != 1 || c.Completed != 2 {
		t.Fatalf("counters after recovery: %+v", c)
	}
}
