package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"swdual/internal/alphabet"
	"swdual/internal/enginetest"
	"swdual/internal/synth"
)

// TestCloseIdempotentConcurrent races several Close calls: all must
// return, and afterwards the gateway refuses work with 503 on every
// surface.
func TestCloseIdempotentConcurrent(t *testing.T) {
	g, srv := newTestGateway(t, testEngine(t, testDB(20, 980)), limits{capacity: 2, queue: 8, clientSlots: 2})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := g.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
		}()
	}
	wg.Wait()

	body := queriesJSON(t, synth.RandomSet(alphabet.Protein, 1, 20, 40, 981), 0)
	if code, _, raw, _ := post(t, srv.Client(), srv.URL, body, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("search after Close: %d (%s), want 503", code, raw)
	}
	resp, err := srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || string(hb) != "closing\n" {
		t.Fatalf("healthz after Close: %d %q", resp.StatusCode, hb)
	}
}

// TestCloseDrainsInFlight pins one search at the gate and queues a
// second, then starts Close: the queued request must fail 503 without
// ever reaching the backend, new arrivals must shed 503, the executing
// search must finish 200, and only then may Close return.
func TestCloseDrainsInFlight(t *testing.T) {
	be := newGateBackend(testEngine(t, testDB(20, 985)))
	g, srv := newTestGateway(t, be, limits{capacity: 1, queue: 4, clientSlots: 8})
	body := queriesJSON(t, synth.RandomSet(alphabet.Protein, 1, 20, 40, 986), 0)

	executing := make(chan int, 1)
	go func() {
		code, _, _, _ := post(t, srv.Client(), srv.URL, body, nil)
		executing <- code
	}()
	<-be.started // the search holds the only execution token, pinned

	queued := make(chan int, 1)
	go func() {
		code, _, _, _ := post(t, srv.Client(), srv.URL, body, nil)
		queued <- code
	}()
	waitFor(t, "second request queued", func() bool { return heldSlots(g) == 2 })

	closeDone := make(chan struct{})
	go func() {
		g.Close()
		close(closeDone)
	}()
	// Close fails the queued waiter immediately; the pinned search keeps
	// Close blocked.
	if code := <-queued; code != http.StatusServiceUnavailable {
		t.Fatalf("queued request during Close: %d, want 503", code)
	}
	if code, _, _, _ := post(t, srv.Client(), srv.URL, body, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("new request during Close: %d, want 503", code)
	}
	select {
	case <-closeDone:
		t.Fatal("Close returned while a search was executing")
	default:
	}

	be.release <- struct{}{}
	if code := <-executing; code != http.StatusOK {
		t.Fatalf("in-flight search during Close: %d, want 200", code)
	}
	<-closeDone
	if c := g.Counters(); c.InFlight != 0 || c.QueueDepth != 0 || c.Completed != 1 {
		t.Fatalf("after drained Close: %+v", c)
	}
}

// TestDeadlineCountsFromArrival pins the only execution token and
// queues requests behind it: a client deadline counts from the
// request's arrival, not from its admission. A Request-Timeout that
// passes in the queue is answered 504 without the request ever reaching
// the backend, and a request queued with timeout_ms reaches the backend
// with its arrival's deadline, not a fresh budget.
func TestDeadlineCountsFromArrival(t *testing.T) {
	be := newGateBackend(testEngine(t, testDB(20, 975)))
	g, srv := newTestGateway(t, be, limits{capacity: 1, queue: 4, clientSlots: 8})
	queries := synth.RandomSet(alphabet.Protein, 1, 20, 40, 976)
	body := queriesJSON(t, queries, 0)

	executing := make(chan int, 1)
	go func() {
		code, _, _, _ := post(t, srv.Client(), srv.URL, body, nil)
		executing <- code
	}()
	<-be.started // the search holds the only execution token, pinned

	queued := make(chan int, 1)
	go func() {
		code, _, _, _ := post(t, srv.Client(), srv.URL, body, map[string]string{"Request-Timeout": "100ms"})
		queued <- code
	}()
	select {
	case code := <-queued:
		if code != http.StatusGatewayTimeout {
			t.Fatalf("request whose Request-Timeout passed in the queue: %d, want 504", code)
		}
	case <-time.After(5 * time.Second):
		be.release <- struct{}{} // unpin, so the gateway can drain
		t.Fatal("a queued request outlived its 100ms Request-Timeout by 5s")
	}
	if n := len(be.started); n != 0 {
		t.Fatalf("%d request(s) reached the backend after timing out in the queue", n)
	}

	req := SearchRequest{TimeoutMillis: 100}
	for i := range queries.Seqs {
		req.Queries = append(req.Queries, Query{Residues: queries.Alpha.DecodeString(queries.Seqs[i].Residues)})
	}
	timed, _ := json.Marshal(req)
	sent := time.Now()
	go func() {
		code, _, _, _ := post(t, srv.Client(), srv.URL, timed, nil)
		queued <- code
	}()
	waitFor(t, "timeout_ms request queued", func() bool { return heldSlots(g) == 2 })
	time.Sleep(300 * time.Millisecond)
	be.release <- struct{}{}
	if code := <-executing; code != http.StatusOK {
		t.Fatalf("pinned search: %d, want 200", code)
	}
	ctx := <-be.started
	const slack = 100 * time.Millisecond
	if deadline, ok := ctx.Deadline(); !ok || deadline.After(sent.Add(100*time.Millisecond+slack)) {
		t.Fatalf("search ctx deadline %v after arrival (ok %v), want at most 100ms + %v",
			deadline.Sub(sent), ok, slack)
	}
	if code := <-queued; code != http.StatusGatewayTimeout {
		t.Fatalf("timeout_ms request admitted past its deadline: %d, want 504", code)
	}
	if c := g.Counters(); c.TimedOut != 2 || c.Failed != 0 {
		t.Fatalf("counters: %+v", c)
	}
}

// TestClientDisconnectCancelsSearch hangs a search at the gate and
// drops the client: the backend's ctx must die (the wave planner will
// then never plan the work) and the gateway must account a clientGone,
// not a failure.
func TestClientDisconnectCancelsSearch(t *testing.T) {
	be := newGateBackend(testEngine(t, testDB(20, 990)))
	g, srv := newTestGateway(t, be, limits{capacity: 2, queue: 8, clientSlots: 2})
	body := queriesJSON(t, synth.RandomSet(alphabet.Protein, 1, 20, 40, 991), 0)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/v1/search", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := srv.Client().Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()

	sctx := <-be.started // the search is executing, pinned at the gate
	cancel()             // client walks away
	if err := <-errc; err == nil {
		t.Fatal("client Do returned no error after cancel")
	}
	waitFor(t, "backend ctx canceled", func() bool { return sctx.Err() != nil })
	waitFor(t, "clientGone accounted", func() bool { return g.Counters().ClientGone == 1 })
	waitFor(t, "slots released", func() bool { return heldSlots(g) == 0 })
	if c := g.Counters(); c.Failed != 0 || c.Completed != 0 {
		t.Fatalf("disconnect accounted as search outcome: %+v", c)
	}
}

// TestNoGoroutineLeakAfterBurst fires a 100-request burst (some
// admitted, some shed) and requires the process to come back to its
// pre-burst goroutine count once the burst's connections are closed.
func TestNoGoroutineLeakAfterBurst(t *testing.T) {
	g := newGateway(testEngine(t, testDB(30, 995)), Config{}, limits{capacity: 4, queue: 8, clientSlots: 200})
	srv := httptest.NewServer(g)
	defer srv.Close()
	defer g.Close()
	tr := &http.Transport{}
	client := &http.Client{Transport: tr}
	defer tr.CloseIdleConnections()
	body := queriesJSON(t, synth.RandomSet(alphabet.Protein, 1, 20, 40, 996), 0)

	do := func() int {
		code, _, _, _ := post(t, client, srv.URL, body, nil)
		return code
	}
	if code := do(); code != http.StatusOK {
		t.Fatalf("warm request: %d", code)
	}
	tr.CloseIdleConnections()
	check := enginetest.LeakCheck(t)

	var wg sync.WaitGroup
	codes := make(chan int, 100)
	for i := 0; i < 100; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			codes <- do()
		}()
	}
	wg.Wait()
	close(codes)
	ok, shed := 0, 0
	for code := range codes {
		switch code {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			shed++
		default:
			t.Fatalf("burst request answered %d", code)
		}
	}
	if ok == 0 {
		t.Fatal("burst: nothing admitted")
	}
	t.Logf("burst: %d completed, %d shed", ok, shed)

	tr.CloseIdleConnections()
	check()
}
