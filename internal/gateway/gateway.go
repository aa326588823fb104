// Package gateway is the cluster's HTTP front door: an HTTP/JSON
// surface over any engine.Backend — the in-process Searcher, the
// sharded scatter/gather, or a replicated cluster coordinator — with
// the admission control the trusted-peer wire protocol never needed.
//
// Under overload a naive HTTP server accepts every connection and lets
// goroutines pile up behind the dispatcher until latency, memory, and
// finally goodput collapse. The gateway instead bounds its admission
// queue and sheds early: Capacity searches execute concurrently,
// Queue more may wait, and past that arrivals are rejected immediately
// with 429 and a Retry-After computed from the live EWMA search
// latency — the same estimator the worker rates use (stats.EWMA)
// applied to the drain rate of the queue. A
// per-client slot bound (API key, else remote address) keeps one
// client from occupying the whole queue, so overload by one tenant
// degrades that tenant, not everyone.
//
// Client deadlines (Request-Timeout header or the timeout_ms body
// field) propagate into the search context, and the engine's wave
// planner drops dead requests before they reach a worker queue — a
// caller that gave up never costs compute.
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

// Config tunes a Gateway. The zero value works: capacity scaled to the
// host, a 4× admission queue, per-client fairness at a quarter of the
// total slots.
type Config struct {
	// Capacity bounds concurrently executing searches (default
	// 2×GOMAXPROCS, minimum 1). Requests beyond it wait in the
	// admission queue.
	Capacity int
	// Queue bounds how many admitted requests may wait for an execution
	// slot (default 4×Capacity; negative means no queue at all). An
	// arrival finding Capacity+Queue slots held is shed with 429 instead
	// of waiting — early rejection is what keeps goodput flat when
	// offered load keeps rising.
	Queue int
	// ClientSlots bounds the slots (executing + waiting) one client may
	// hold at once (default: a quarter of Capacity+Queue, minimum 1). A
	// client is its X-API-Key header, else its remote address.
	ClientSlots int
	// DBMappedBytes is the size of the memory-mapped database file
	// behind the backend, exported as swdual_process_db_mapped_bytes (0
	// when the database is heap-backed). The gateway only reports it;
	// the mapping's lifecycle belongs to whoever opened it.
	DBMappedBytes int64
}

func (c *Config) defaults() {
	if c.Capacity == 0 {
		c.Capacity = 2 * runtime.GOMAXPROCS(0)
	}
	if c.Capacity < 1 {
		c.Capacity = 1
	}
	switch {
	case c.Queue == 0:
		c.Queue = 4 * c.Capacity
	case c.Queue < 0:
		c.Queue = 0 // explicit "no queue": execute or shed
	}
	if c.ClientSlots == 0 {
		c.ClientSlots = (c.Capacity + c.Queue) / 4
	}
	if c.ClientSlots < 1 {
		c.ClientSlots = 1
	}
}

// Counters is a snapshot of the gateway's own accounting (the engine's
// counters ride along separately via Stats).
type Counters struct {
	// Admitted counts requests that reached an execution slot; Shed*
	// count early 429 rejections (ShedQueue: admission queue full,
	// ShedClient: per-client slot bound). Admitted + sheds + malformed
	// 4xx = every POST /v1/search ever answered.
	Admitted   uint64 `json:"admitted"`
	ShedQueue  uint64 `json:"shed_queue"`
	ShedClient uint64 `json:"shed_client"`
	// Completed counts 2xx answers (200 full + 206 partial); Degraded
	// counts the 206 subset — partial-coverage answers from a backend
	// riding over dark ranges. Failed counts backend errors (5xx);
	// TimedOut counts propagated-deadline 504s; ClientGone counts
	// requests whose client disconnected before the answer (their
	// search ctx was canceled — no status was writable).
	Completed  uint64 `json:"completed"`
	Degraded   uint64 `json:"degraded"`
	Failed     uint64 `json:"failed"`
	TimedOut   uint64 `json:"timed_out"`
	ClientGone uint64 `json:"client_gone"`
	// InFlight is the executing-search gauge, QueueDepth the waiting
	// gauge; InFlight+QueueDepth slots are held of
	// Capacity+Queue.
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

// New builds a Gateway over the backend. Negative admission bounds are
// rejected; zeros select defaults.
func New(be engine.Backend, cfg Config) (*Gateway, error) {
	if be == nil {
		return nil, fmt.Errorf("gateway: nil backend")
	}
	if cfg.Capacity < 0 || cfg.ClientSlots < 0 {
		return nil, fmt.Errorf("gateway: negative admission bound (capacity %d, client slots %d)",
			cfg.Capacity, cfg.ClientSlots)
	}
	cfg.defaults()
	g := &Gateway{
		cfg:      cfg,
		be:       be,
		sem:      make(chan struct{}, cfg.Capacity),
		byClient: make(map[string]int),
		closed:   make(chan struct{}),
	}
	g.cond = sync.NewCond(&g.mu)
	g.mux = http.NewServeMux()
	g.mux.HandleFunc("/v1/search", g.handleSearch)
	g.mux.HandleFunc("/v1/stats", g.handleStats)
	g.mux.HandleFunc("/healthz", g.handleHealthz)
	g.mux.HandleFunc("/metrics", g.handleMetrics)
	return g, nil
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
// plausibly finds a free slot: the held slots drain through Capacity
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
	rounds := held/g.cfg.Capacity + 1
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
// wait for an execution token. On success the caller runs with both
// and must call the returned release. On failure the apiError says
// what to answer — except when the client's ctx died first, where
// there is nobody left to answer (nil, nil).
func (g *Gateway) admit(ctx context.Context, client string) (release func(), apiErr *apiError) {
	g.mu.Lock()
	if g.closing {
		g.mu.Unlock()
		return nil, &apiError{code: http.StatusServiceUnavailable, msg: "gateway shutting down"}
	}
	if g.held >= g.cfg.Capacity+g.cfg.Queue {
		held := g.held
		g.mu.Unlock()
		g.shedQueue.Add(1)
		return nil, &apiError{code: http.StatusTooManyRequests,
			msg:        "overloaded: admission queue full",
			retryAfter: g.retryAfter(held)}
	}
	if g.byClient[client] >= g.cfg.ClientSlots {
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
	hdrTimeout, apiErr := parseTimeoutHeader(r.Header.Get("Request-Timeout"))
	if apiErr != nil {
		writeError(w, apiErr)
		return
	}
	// Admission runs before the body is read: shedding must stay cheap,
	// or the shed path itself collapses under the load it exists to
	// survive.
	release, apiErr := g.admit(r.Context(), clientKey(r))
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

	// Deadline: body field wins, then header; neither means none.
	// The ctx descends from the request's, so a client disconnect
	// cancels the search all the way into the wave planner.
	timeout := time.Duration(req.TimeoutMillis) * time.Millisecond
	if timeout == 0 {
		timeout = hdrTimeout
	}
	ctx := r.Context()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	start := time.Now()
	rep, err := g.be.Search(ctx, queries, engine.SearchOptions{TopK: req.TopK})
	switch {
	case err == nil:
		g.lat.Observe(float64(time.Since(start)))
		g.completed.Add(1)
		// A degraded backend answer is a 206: the body is the usual
		// response plus the coverage block, so clients that only check
		// for 2xx still work while coverage-aware ones see exactly what
		// was skipped. Full answers stay 200, byte-identical to a
		// gateway that never heard of degraded mode.
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
