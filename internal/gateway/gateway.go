// Package gateway is the cluster's HTTP front door: an HTTP/JSON
// surface over any engine.Backend — the in-process Searcher, the
// sharded scatter/gather, or a replicated cluster coordinator — with
// the admission control the trusted-peer wire protocol never needed.
//
// Under overload a naive HTTP server accepts every connection and lets
// goroutines pile up behind the dispatcher until latency, memory, and
// finally goodput collapse. The gateway instead bounds its admission
// queue and sheds early. It sizes itself from its host: 2×GOMAXPROCS
// searches execute concurrently, four times that many may wait, and
// past that arrivals are rejected immediately with 429 and a
// Retry-After computed from the live EWMA search latency — the same
// estimator the worker rates use (stats.EWMA) applied to the drain
// rate of the queue. A per-client bound of a quarter of all slots (API
// key, else remote address) keeps one client from occupying the whole
// queue, so overload by one tenant degrades that tenant, not everyone.
//
// A client deadline (Request-Timeout header or the timeout_ms body
// field, which wins when both are set) counts from the request's
// arrival. The header deadline also bounds the wait for an execution
// slot, and the search gets what is left of its deadline; the engine's
// wave planner drops dead requests before they reach a worker queue —
// a caller that gave up never costs compute.
//
// Endpoints:
//
//	POST /v1/search   search the database (JSON body, see SearchRequest)
//	GET  /v1/stats    gateway counters + engine.Stats as JSON
//	GET  /healthz     200 while serving, 503 once Close began
//	GET  /metrics     Prometheus text format
package gateway

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"swdual/internal/engine"
	"swdual/internal/stats"
)

// Config describes what a Gateway reports about its backend.
type Config struct {
	// DBMappedBytes is the size of the memory-mapped database file
	// behind the backend, exported as swdual_process_db_mapped_bytes (0
	// when the database is heap-backed). The gateway only reports it;
	// the mapping's lifecycle belongs to whoever opened it.
	DBMappedBytes int64
}

// limits are a Gateway's admission bounds.
type limits struct {
	capacity    int // concurrently executing searches
	queue       int // admitted requests that may wait for an execution token
	clientSlots int // slots (executing + waiting) one client may hold
}

// hostLimits sizes admission from the host: two executing searches per
// usable CPU, a queue four times that, and a quarter of all slots per
// client.
func hostLimits() limits {
	c := 2 * runtime.GOMAXPROCS(0)
	q := 4 * c
	return limits{capacity: c, queue: q, clientSlots: (c + q) / 4}
}

// Counters is a snapshot of the gateway's own accounting (the engine's
// counters ride along separately via Stats).
type Counters struct {
	// Admitted counts requests that reached an execution slot; Shed*
	// count early 429 rejections (ShedQueue: admission queue full,
	// ShedClient: per-client slot bound). A request whose deadline
	// passed while it was queued is answered 504 and counted in
	// TimedOut, neither admitted nor shed.
	Admitted   uint64 `json:"admitted"`
	ShedQueue  uint64 `json:"shed_queue"`
	ShedClient uint64 `json:"shed_client"`
	// Completed counts 2xx answers (200 full + 206 partial); Degraded
	// counts the 206 subset — partial-coverage answers from a backend
	// riding over dark ranges. Failed counts backend errors (5xx);
	// TimedOut counts 504s, from the queue or the search; ClientGone counts
	// requests whose client disconnected before the answer (their
	// search ctx was canceled — no status was writable).
	Completed  uint64 `json:"completed"`
	Degraded   uint64 `json:"degraded"`
	Failed     uint64 `json:"failed"`
	TimedOut   uint64 `json:"timed_out"`
	ClientGone uint64 `json:"client_gone"`
	// InFlight is the executing-search gauge, QueueDepth the waiting
	// gauge; InFlight+QueueDepth slots are held of capacity+queue.
	InFlight   int `json:"in_flight"`
	QueueDepth int `json:"queue_depth"`
	// LatencyMeanNS is the EWMA of completed search latency — the
	// number Retry-After estimates drain time from (0 until the first
	// completion).
	LatencyMeanNS int64 `json:"latency_mean_ns"`
}

// Gateway is the HTTP front door over one backend. It implements
// http.Handler; Close makes it refuse new work, fail waiting requests
// with 503, and block until executing searches drained. The Gateway
// does not own the backend — close the backend after the Gateway.
type Gateway struct {
	cfg Config
	lim limits
	be  engine.Backend
	mux *http.ServeMux

	sem chan struct{} // execution tokens (len == executing searches)

	mu       sync.Mutex
	cond     *sync.Cond // broadcast on slot release; Close waits on it
	held     int        // admission slots held (waiting + executing)
	byClient map[string]int
	closing  bool

	closed    chan struct{} // closes when Close begins; queue waiters stop waiting
	closeOnce sync.Once

	lat stats.EWMA // search latency, nanoseconds

	admitted   atomic.Uint64
	shedQueue  atomic.Uint64
	shedClient atomic.Uint64
	completed  atomic.Uint64
	degraded   atomic.Uint64
	failed     atomic.Uint64
	timedOut   atomic.Uint64
	clientGone atomic.Uint64
}

// New builds a Gateway over the backend, its admission sized from the
// host.
func New(be engine.Backend, cfg Config) (*Gateway, error) {
	if be == nil {
		return nil, fmt.Errorf("gateway: nil backend")
	}
	return newGateway(be, cfg, hostLimits()), nil
}

func newGateway(be engine.Backend, cfg Config, lim limits) *Gateway {
	g := &Gateway{
		cfg:      cfg,
		lim:      lim,
		be:       be,
		sem:      make(chan struct{}, lim.capacity),
		byClient: make(map[string]int),
		closed:   make(chan struct{}),
	}
	g.cond = sync.NewCond(&g.mu)
	g.mux = http.NewServeMux()
	g.mux.HandleFunc("/v1/search", g.handleSearch)
	g.mux.HandleFunc("/v1/stats", g.handleStats)
	g.mux.HandleFunc("/healthz", g.handleHealthz)
	g.mux.HandleFunc("/metrics", g.handleMetrics)
	return g
}

// ServeHTTP dispatches to the gateway's endpoints.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) { g.mux.ServeHTTP(w, r) }

// Serve answers HTTP on l until the listener closes (returns nil then).
func (g *Gateway) Serve(l net.Listener) error {
	err := http.Serve(l, g)
	if errors.Is(err, net.ErrClosed) {
		return nil
	}
	return err
}

// Close stops admission: new requests get 503, requests waiting for an
// execution slot fail with 503, and Close blocks until every executing
// search drained. Idempotent and safe to call concurrently; the
// backend is left open (the Gateway never owned it).
func (g *Gateway) Close() error {
	g.mu.Lock()
	g.closing = true
	g.mu.Unlock()
	g.closeOnce.Do(func() { close(g.closed) })
	g.mu.Lock()
	for g.held > 0 {
		g.cond.Wait()
	}
	g.mu.Unlock()
	return nil
}

// Counters snapshots the gateway's accounting.
func (g *Gateway) Counters() Counters {
	g.mu.Lock()
	held := g.held
	g.mu.Unlock()
	executing := len(g.sem)
	queued := held - executing
	if queued < 0 {
		// held and len(sem) are read without a common lock; clamp the
		// transient skew rather than reporting a negative queue.
		queued = 0
	}
	mean, _ := g.lat.Snapshot()
	return Counters{
		Admitted:      g.admitted.Load(),
		ShedQueue:     g.shedQueue.Load(),
		ShedClient:    g.shedClient.Load(),
		Completed:     g.completed.Load(),
		Degraded:      g.degraded.Load(),
		Failed:        g.failed.Load(),
		TimedOut:      g.timedOut.Load(),
		ClientGone:    g.clientGone.Load(),
		InFlight:      executing,
		QueueDepth:    queued,
		LatencyMeanNS: int64(mean),
	}
}

// clientKey identifies the fairness bucket of a request: the API key
// when one is presented, else the remote host (without the ephemeral
// port, so one misbehaving process is one bucket, not thousands).
func clientKey(r *http.Request) string {
	if k := r.Header.Get("X-API-Key"); k != "" {
		return "key:" + k
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return "addr:" + r.RemoteAddr
	}
	return "addr:" + host
}

// maxRetryAfterSeconds caps the Retry-After estimate at an hour: past
// that the number carries no information a client can act on, and the
// cap keeps the float64 product below anything an int conversion could
// mangle.
const maxRetryAfterSeconds = 3600

// retryAfter estimates, in whole seconds, how long until a shed client
// plausibly finds a free slot: the held slots drain through capacity
// parallel executors at the EWMA search latency. The estimate is
// clamped to [1, maxRetryAfterSeconds] — cold start (no completions
// yet, so an empty EWMA) must never produce "Retry-After: 0", which
// well-behaved clients read as an invitation to hammer the gateway
// that is already shedding them, and a huge queue over a slow backend
// must not overflow through the int conversion into a negative header.
func (g *Gateway) retryAfter(held int) int {
	ns, n := g.lat.Snapshot()
	mean := time.Duration(ns)
	if n == 0 || mean <= 0 {
		mean = time.Second
	}
	rounds := held/g.lim.capacity + 1
	est := math.Ceil(float64(rounds) * mean.Seconds())
	if est > maxRetryAfterSeconds {
		return maxRetryAfterSeconds
	}
	secs := int(est)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// admit runs admission control for one search: take an admission slot
// (shedding with 429 if the queue or the client's share is full), then
// wait for an execution token until ctx is done. On success the caller
// runs with both and must call the returned release. On failure the
// apiError says what to answer: 504 when ctx's deadline passed in the
// queue. When the client hung up first there is nobody left to answer
// (nil, nil).
func (g *Gateway) admit(ctx context.Context, client string) (release func(), apiErr *apiError) {
	g.mu.Lock()
	if g.closing {
		g.mu.Unlock()
		return nil, &apiError{code: http.StatusServiceUnavailable, msg: "gateway shutting down"}
	}
	if g.held >= g.lim.capacity+g.lim.queue {
		held := g.held
		g.mu.Unlock()
		g.shedQueue.Add(1)
		return nil, &apiError{code: http.StatusTooManyRequests,
			msg:        "overloaded: admission queue full",
			retryAfter: g.retryAfter(held)}
	}
	if g.byClient[client] >= g.lim.clientSlots {
		held := g.held
		g.mu.Unlock()
		g.shedClient.Add(1)
		return nil, &apiError{code: http.StatusTooManyRequests,
			msg:        "overloaded: per-client slot limit reached",
			retryAfter: g.retryAfter(held)}
	}
	g.held++
	g.byClient[client]++
	g.mu.Unlock()

	select {
	case g.sem <- struct{}{}:
		g.admitted.Add(1)
		return func() {
			<-g.sem
			g.releaseSlot(client)
		}, nil
	case <-g.closed:
		g.releaseSlot(client)
		return nil, &apiError{code: http.StatusServiceUnavailable, msg: "gateway shutting down"}
	case <-ctx.Done():
		g.releaseSlot(client)
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			g.timedOut.Add(1)
			return nil, &apiError{code: http.StatusGatewayTimeout, msg: "deadline exceeded waiting for an execution slot"}
		}
		g.clientGone.Add(1)
		return nil, nil // the client hung up while queued; nothing to answer
	}
}

func (g *Gateway) releaseSlot(client string) {
	g.mu.Lock()
	g.held--
	if g.byClient[client]--; g.byClient[client] <= 0 {
		delete(g.byClient, client)
	}
	g.cond.Broadcast()
	g.mu.Unlock()
}

func (g *Gateway) handleSearch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, &apiError{code: http.StatusMethodNotAllowed, msg: "POST only"})
		return
	}
	arrival := time.Now()
	hdrTimeout, apiErr := parseTimeoutHeader(r.Header.Get("Request-Timeout"))
	if apiErr != nil {
		writeError(w, apiErr)
		return
	}
	// A deadline counts from arrival. The ctx descends from the
	// request's, so a client disconnect cancels the wait and the search
	// all the way into the wave planner.
	ctx := r.Context()
	if hdrTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, arrival.Add(hdrTimeout))
		defer cancel()
	}
	// Admission runs before the body is read: shedding must stay cheap,
	// or the shed path itself collapses under the load it exists to
	// survive.
	release, apiErr := g.admit(ctx, clientKey(r))
	if apiErr != nil {
		writeError(w, apiErr)
		return
	}
	if release == nil {
		return // client disconnected while queued
	}
	defer release()

	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, &apiError{code: http.StatusRequestEntityTooLarge, msg: "request body too large or unreadable"})
		return
	}
	queries, req, apiErr := decodeSearchRequest(body, g.be.Alphabet())
	if apiErr != nil {
		writeError(w, apiErr)
		return
	}
	// The body's deadline wins over the header's.
	if req.TimeoutMillis > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(r.Context(), arrival.Add(time.Duration(req.TimeoutMillis)*time.Millisecond))
		defer cancel()
	}

	start := time.Now()
	rep, err := g.be.Search(ctx, queries, engine.SearchOptions{TopK: req.TopK})
	switch {
	case err == nil:
		g.lat.Observe(float64(time.Since(start)))
		g.completed.Add(1)
		// A partial backend answer is a 206: the body is the usual
		// response plus the coverage block, so clients that only check
		// for 2xx still work while coverage-aware ones see exactly what
		// was skipped. Full answers stay 200, with no coverage key.
		status := http.StatusOK
		if rep.Coverage != nil {
			status = http.StatusPartialContent
			g.degraded.Add(1)
		}
		writeJSON(w, status, encodeResponse(queries, rep))
	case errors.Is(err, context.DeadlineExceeded):
		g.timedOut.Add(1)
		writeError(w, &apiError{code: http.StatusGatewayTimeout, msg: "search deadline exceeded"})
	case r.Context().Err() != nil:
		g.clientGone.Add(1) // nobody is listening for a status
	case errors.Is(err, engine.ErrClosed):
		g.failed.Add(1)
		writeError(w, &apiError{code: http.StatusServiceUnavailable, msg: "search backend closed"})
	default:
		g.failed.Add(1)
		writeError(w, &apiError{code: http.StatusInternalServerError, msg: err.Error()})
	}
}

// statsResponse is the GET /v1/stats body: the gateway's own counters
// next to the backend's cumulative engine.Stats.
type statsResponse struct {
	Gateway Counters     `json:"gateway"`
	Engine  engine.Stats `json:"engine"`
}

func (g *Gateway) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, &apiError{code: http.StatusMethodNotAllowed, msg: "GET only"})
		return
	}
	writeJSON(w, http.StatusOK, statsResponse{Gateway: g.Counters(), Engine: g.be.Stats()})
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	g.mu.Lock()
	closing := g.closing
	g.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if closing {
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "closing\n") //nolint:errcheck
		return
	}
	io.WriteString(w, "ok\n") //nolint:errcheck
}
