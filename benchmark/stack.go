package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"swdual"
	"swdual/internal/engine"
	"swdual/internal/master"
)

// workload names one topology and the traffic it gets. Everything a
// workload does differently from the others is in this table and in
// generator.next.
type workload struct {
	name    string
	clients int  // closed-loop clients, one connection each
	http    bool // front door is the gateway over loopback HTTP
	cache   bool // result cache on
	cluster bool // coordinator over two shard servers
	// ungated says why the workload is left out of BENCHMARK.json: the suite
	// and the traced run report it, the gate does not run it.
	ungated string
	why     string
}

var workloads = []workload{
	{name: "batch_scan", clients: 1,
		why: "the paper's use case: 4 unequal fresh queries per Search on 2 CPU workers; kernel and scheduler show, nothing else does"},
	{name: "serve_http", clients: 2, http: true, cache: true,
		why: "the same kernel fed by concurrent single-query HTTP requests: gateway, admission, cache miss and Put, one-task waves"},
	// One client: a hit takes 0.3 ms, and two clients with their two server
	// goroutines and the collector on two vCPUs measured the scheduler.
	{name: "serve_repeat", clients: 1, http: true, cache: true,
		why:     "8 primed requests repeated, all cache hits: gateway JSON and the cache read side do everything, the kernel nothing",
		ungated: "0.3 ms of JSON, allocation and goroutine hand-offs runs up to 1.5x faster or slower with the shared host's state, for minutes at a time: ten runs of one commit spread by 14-34 %, past any bound the gate allows"},
	{name: "cluster_scatter", clients: 2, http: true, cache: true, cluster: true,
		why: "serve_http's traffic through a coordinator over two loopback shard servers: scatter, replica facade, wire, merge"},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// stack is one constructed topology behind its front door: search for
// an in-process front door, url for an HTTP one.
type stack struct {
	search func(ctx context.Context, r *request) ([][]master.Hit, error)
	url    string
	stats  func() engine.Stats
	shed   func() uint64 // requests the gateway refused; nil without a gateway
	rec    *recorder     // non-nil in the traced topology: clients record their spans
	undo   []func() error
}

// shedCount is how many requests the stack's gateway has refused.
func (s *stack) shedCount() uint64 {
	if s.shed == nil {
		return 0
	}
	return s.shed()
}

// onClose registers a teardown step; steps run in reverse order.
func (s *stack) onClose(f func() error) { s.undo = append(s.undo, f) }

// Close tears the topology down and reports the first error.
func (s *stack) Close() error {
	var first error
	for i := len(s.undo) - 1; i >= 0; i-- {
		if err := s.undo[i](); err != nil && first == nil {
			first = err
		}
	}
	s.undo = nil
	return first
}

// listen opens a loopback listener and serves it on a goroutine that
// Close waits for after closing the listener.
func (s *stack) listen(serve func(net.Listener) error) (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	done := make(chan error, 1)
	go func() { done <- serve(l) }()
	s.onClose(func() error {
		l.Close()
		return <-done
	})
	return l.Addr().String(), nil
}

// buildPublic constructs the workload's topology through the public
// swdual API only; this is what the end-to-end metrics measure.
func buildPublic(w workload, corpusPath string) (st *stack, err error) {
	st = &stack{}
	defer func() {
		if err != nil {
			st.Close()
		}
	}()
	db, err := swdual.OpenDatabase(corpusPath)
	if err != nil {
		return nil, err
	}
	st.onClose(db.Close)

	opt := swdual.Options{Pool: "cpu=2", Cache: w.cache}
	if w.cache {
		opt.CacheSize = 256
	}
	if w.cluster {
		shardOpt := swdual.Options{Pool: "cpu=1", ShardSplit: "balanced"}
		groups := make([][]string, 2)
		for i := range groups {
			i := i
			addr, err := st.listen(func(l net.Listener) error {
				return swdual.ServeShard(l, db, i, len(groups), shardOpt)
			})
			if err != nil {
				return nil, err
			}
			groups[i] = []string{addr}
		}
		opt = swdual.Options{ReplicaShards: groups, ShardSplit: "balanced", Cache: true, CacheSize: 256}
	}
	s, err := swdual.NewSearcher(db, opt)
	if err != nil {
		return nil, err
	}
	st.onClose(s.Close)
	st.stats = s.Stats
	if !w.http {
		st.search = func(ctx context.Context, r *request) ([][]master.Hit, error) {
			queries, err := swdual.FromSequences(r.ids, r.residues)
			if err != nil {
				return nil, err
			}
			rep, err := s.Search(ctx, queries, swdual.SearchOptions{})
			if err != nil {
				return nil, err
			}
			return reportHits(rep), nil
		}
		return st, nil
	}
	gw, err := swdual.NewGateway(s, opt)
	if err != nil {
		return nil, err
	}
	err = st.serveGateway(gw.Serve, gw.Close, func() uint64 { c := gw.Counters(); return c.ShedQueue + c.ShedClient })
	if err != nil {
		return nil, err
	}
	return st, nil
}

// serveGateway puts a gateway on a loopback listener and makes it the
// stack's front door.
func (s *stack) serveGateway(serve func(net.Listener) error, closeGateway func() error, shed func() uint64) error {
	addr, err := s.listen(serve)
	if err != nil {
		return err
	}
	s.onClose(closeGateway)
	s.url = "http://" + addr
	s.shed = shed
	return nil
}

func reportHits(rep *master.Report) [][]master.Hit {
	out := make([][]master.Hit, len(rep.Results))
	for i := range rep.Results {
		out[i] = rep.Results[i].Hits
	}
	return out
}

// client is one closed-loop caller: for an HTTP front door it owns one
// connection.
type client struct {
	st   *stack
	http *http.Client
}

func newClient(st *stack) *client {
	c := &client{st: st}
	if st.url != "" {
		c.http = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	}
	return c
}

func (c *client) close() {
	if c.http != nil {
		c.http.CloseIdleConnections()
	}
}

// do sends one request through the front door and returns the decoded
// hits; anything but a complete 200 answer is an error.
func (c *client) do(ctx context.Context, r *request) ([][]master.Hit, error) {
	if c.st.rec == nil {
		return c.send(ctx, r)
	}
	start := time.Now()
	answer, err := c.send(ctx, r)
	c.st.rec.record("client", 0, "", r.id, start, time.Now())
	return answer, err
}

func (c *client) send(ctx context.Context, r *request) ([][]master.Hit, error) {
	if c.http == nil {
		return c.st.search(ctx, r)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.st.url+"/v1/search", bytes.NewReader(r.payload))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: HTTP %d: %.200s", r.id, resp.StatusCode, raw)
	}
	var body struct {
		Results []struct {
			ID   string `json:"id"`
			Hits []struct {
				SeqIndex int    `json:"seq_index"`
				SeqID    string `json:"seq_id"`
				Score    int    `json:"score"`
			} `json:"hits"`
		} `json:"results"`
	}
	if err := json.Unmarshal(raw, &body); err != nil {
		return nil, fmt.Errorf("%s: %w", r.id, err)
	}
	out := make([][]master.Hit, len(body.Results))
	for i, res := range body.Results {
		if i < len(r.ids) && res.ID != r.ids[i] {
			return nil, fmt.Errorf("%s: result %d is for %q", r.id, i, res.ID)
		}
		out[i] = make([]master.Hit, len(res.Hits))
		for j, h := range res.Hits {
			out[i][j] = master.Hit{SeqIndex: h.SeqIndex, SeqID: h.SeqID, Score: h.Score}
		}
	}
	return out, nil
}

// setup constructs a stack, sends the fixed warm-up request through its
// front door and hands the stack back still open, with the answer and
// how long that first request took.
func setup(build func() (*stack, error), warm *request) (st *stack, answer [][]master.Hit, firstSearch time.Duration, err error) {
	st, err = build()
	if err != nil {
		return nil, nil, 0, err
	}
	c := newClient(st)
	defer c.close()
	t0 := time.Now()
	answer, err = c.do(context.Background(), warm)
	firstSearch = time.Since(t0)
	if err == nil {
		err = checkShape(warm, answer)
	}
	if err != nil {
		st.Close()
		return nil, nil, 0, fmt.Errorf("warm-up: %w", err)
	}
	return st, answer, firstSearch, nil
}
