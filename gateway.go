package swdual

import (
	"net"
	"net/http"

	"swdual/internal/gateway"
)

// Gateway is the HTTP/JSON front door over a Searcher, with admission
// control and load shedding sized from the host: 2×GOMAXPROCS searches
// execute concurrently, four times that many may wait, and past that
// requests are rejected early with 429 and a Retry-After computed from
// the live search-latency estimate. A per-client bound of a quarter of
// all slots (X-API-Key header, else remote address) keeps one client
// from occupying the whole queue. A client deadline — a Request-Timeout
// header or the timeout_ms body field — counts from the request's
// arrival. The header deadline also bounds the wait for an execution
// slot (504 when it passes there), and the search context gets what is
// left, so abandoned work is never planned into a scheduling wave; a
// request carrying neither runs without a deadline. Request bodies are
// capped at 8 MiB.
//
// Endpoints:
//
//	POST /v1/search   search the database (JSON body)
//	GET  /v1/stats    gateway counters + engine stats as JSON
//	GET  /healthz     200 while serving, 503 once Close began
//	GET  /metrics     Prometheus text format
//
// The Gateway serves whatever backend the Searcher was built over —
// in-process, sharded, or a replicated cluster coordinator — and hits
// stay byte-identical to direct Searcher.Search calls. It is how a
// client searches over a socket; the wire protocol only joins a
// coordinator to its ServeShard servers.
type Gateway struct {
	inner *gateway.Gateway
	s     *Searcher
}

// GatewayCounters is a snapshot of a Gateway's admission and outcome
// accounting.
type GatewayCounters = gateway.Counters

// NewGateway wraps s in the HTTP front door. No Options field applies
// to it: the parameter stays only because existing callers pass one.
// The Gateway does not own the Searcher: close the Gateway first
// (draining in-flight searches), then the Searcher.
func NewGateway(s *Searcher, _ Options) (*Gateway, error) {
	if s == nil {
		return nil, errNilSets
	}
	g, err := gateway.New(s.inner, gateway.Config{DBMappedBytes: s.db.MappedBytes()})
	if err != nil {
		return nil, err
	}
	return &Gateway{inner: g, s: s}, nil
}

// ServeHTTP implements http.Handler, so a Gateway can mount under any
// mux or server of the caller's choosing.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) { g.inner.ServeHTTP(w, r) }

// Serve answers HTTP on l until the listener closes (returns nil then).
func (g *Gateway) Serve(l net.Listener) error { return g.inner.Serve(l) }

// Counters snapshots the gateway's admission and outcome accounting.
func (g *Gateway) Counters() GatewayCounters { return g.inner.Counters() }

// Searcher returns the backend the Gateway fronts.
func (g *Gateway) Searcher() *Searcher { return g.s }

// Close stops admission — new and queued requests get 503 — and blocks
// until in-flight searches drained. Idempotent; the Searcher stays
// open.
func (g *Gateway) Close() error { return g.inner.Close() }
