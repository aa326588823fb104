package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"swdual"
	"swdual/internal/seqdb"
)

// cliEnv, set in a child's environment, makes the test binary run the
// CLI's main instead of the tests: every process these tests start is
// this binary, so they need no build step.
const cliEnv = "SWDUAL_TEST_CLI"

func TestMain(m *testing.M) {
	if os.Getenv(cliEnv) != "" {
		// The test flags are not the CLI's: usage lists only its own.
		flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ExitOnError)
		// A child dies with the test binary, however that ends: its
		// stdin is a pipe whose only writer the test binary holds.
		go func() {
			io.Copy(io.Discard, os.Stdin)
			os.Exit(2)
		}()
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

const (
	// runWait bounds one one-shot run of the CLI, startWait a server's
	// start up to the line naming its address, and settleWait each
	// poll of what the cluster does in the background (a redial, a
	// range going dark).
	runWait    = time.Minute
	startWait  = 30 * time.Second
	settleWait = 15 * time.Second
)

// TestCLI runs the CLI as separate processes, as the paper's master
// and workers run: search, plan, -serve range servers, -replica-shards
// coordinators and -gateway front doors over one generated corpus,
// whose hits every subtest compares with a local one-process search.
func TestCLI(t *testing.T) {
	dir := t.TempDir()
	db, err := swdual.GenerateDatabase("UniProt", 20000)
	if err != nil {
		t.Fatal(err)
	}
	queries, err := swdual.GenerateQueries("standard", 400)
	if err != nil {
		t.Fatal(err)
	}
	c := &corpus{db: db, queries: queries, dbPath: filepath.Join(dir, "db.fasta"), qPath: filepath.Join(dir, "q.fasta"), dir: dir}
	if err := db.SaveFASTA(c.dbPath); err != nil {
		t.Fatal(err)
	}
	if err := queries.SaveFASTA(c.qPath); err != nil {
		t.Fatal(err)
	}
	c.local = c.search(t, c.dbPath, 10)
	c.local5 = c.search(t, c.dbPath, 5)

	t.Run("served", c.served)
	t.Run("cluster", c.cluster)
	t.Run("mmap", c.mmap)
	t.Run("chaos", c.chaos)
	t.Run("gateway", c.gateway)
	t.Run("degraded_range", c.degradedRange)
}

// corpus is the database and query set every subtest searches, as
// files, with the hits of a local search at the default -topk (10) and
// at the 5 the HTTP requests ask for.
type corpus struct {
	db, queries   *swdual.Database
	dbPath, qPath string
	dir           string
	local, local5 string
}

// search runs a local one-shot search of the queries against dbPath and
// returns its hit lines.
func (c *corpus) search(t *testing.T, dbPath string, topK int) string {
	t.Helper()
	r := run(t, "-db", dbPath, "-query", c.qPath, "-topk", strconv.Itoa(topK))
	r.exits(t, 0)
	return hitLines(r.stdout)
}

// served: the CLI's refusals, and one -serve process holding the whole
// database behind a coordinator process.
func (c *corpus) served(t *testing.T) {
	// -plan plans with the scheduler -policy names, so it refuses the
	// names a search refuses, the retired dual-approx-dp too.
	for _, p := range []string{"bogus", "dual-approx-dp"} {
		run(t, "-db", c.dbPath, "-query", c.qPath, "-plan", "-policy", p).refused(t, p)
	}
	// A search runs only workers whose time is measured: a gpu= pool is
	// refused, naming -plan, and -plan schedules it on the model.
	run(t, "-db", c.dbPath, "-query", c.qPath, "-pool", "cpu=1,gpu=1").refused(t, "-plan")
	run(t, "-db", c.dbPath, "-query", c.qPath, "-plan", "-pool", "cpu=1,gpu=1").exits(t, 0)
	// A coordinator is not served over the wire. Neither address is
	// dialed: the flags are refused first.
	run(t, "-db", c.dbPath, "-serve", anyPort, "-replica-shards", anyPort).refused(t, "-gateway")
	// There is one shard split: -shard-split is an unknown flag.
	run(t, "-db", c.dbPath, "-query", c.qPath, "-shard-split", "balanced").refused(t, "-shard-split")

	// A coordinator refuses a server that scores with another matrix,
	// naming it (the Welcome carries the scoring).
	pam := start(t, "-db", c.dbPath, "-serve", anyPort, "-matrix", "PAM250")
	run(t, "-db", c.dbPath, "-query", c.qPath, "-replica-shards", pam.addr).refused(t, "PAM250")
	pam.kill()

	srv := start(t, "-db", c.dbPath, "-serve", anyPort)
	r := run(t, "-db", c.dbPath, "-query", c.qPath, "-replica-shards", srv.addr)
	r.exits(t, 0)
	sameHits(t, "one served range", c.local, hitLines(r.stdout))
}

// cluster: two range servers and a coordinator scattering over them.
func (c *corpus) cluster(t *testing.T) {
	s0, s1 := serveRange(t, c.dbPath, anyPort, 0), serveRange(t, c.dbPath, anyPort, 1)
	r := run(t, "-db", c.dbPath, "-query", c.qPath, "-replica-shards", s0.addr+";"+s1.addr)
	r.exits(t, 0)
	sameHits(t, "two served ranges", c.local, hitLines(r.stdout))
}

// mmap: two range servers and the coordinator all map one .swdb file;
// the hits are those of the FASTA original parsed into the heap.
func (c *corpus) mmap(t *testing.T) {
	path := filepath.Join(c.dir, "db.swdb")
	if err := c.db.SaveBinary(path); err != nil {
		t.Fatal(err)
	}
	m, err := seqdb.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	err = m.Verify()
	m.Close()
	if err != nil {
		t.Fatal(err)
	}
	s0, s1 := serveRange(t, path, anyPort, 0), serveRange(t, path, anyPort, 1)
	r := run(t, "-db", path, "-query", c.qPath, "-replica-shards", s0.addr+";"+s1.addr)
	r.exits(t, 0)
	sameHits(t, "mapped ranges", c.local, hitLines(r.stdout))
}

// chaos: two ranges of two replica servers each. Range 0's primary
// replica is SIGKILLed while the second search's request is on it, and
// the four searches after start with it dead. Every search succeeds
// with the local hits.
func (c *corpus) chaos(t *testing.T) {
	servers, _ := c.replicated(t)
	// The coordinators reach range 0's primary through a relay, which
	// shows when a search request is on it.
	rl := newRelay(t, servers[0][0].addr)
	replicas := rl.addr() + "," + servers[0][1].addr + ";" + servers[1][0].addr + "," + servers[1][1].addr
	args := []string{"-db", c.dbPath, "-query", c.qPath, "-dial-timeout", "3s", "-replica-shards", replicas}
	outs := []result{run(t, args...)}
	// The replica gets search 2's request and dies before its answer
	// reaches the coordinator, which loses the connection mid-search
	// and must fail over to the sibling.
	rl.armed.Store(true)
	second := begin(t, args...)
	select {
	case <-rl.inFlight:
	case <-time.After(startWait):
		r := second.wait(t)
		t.Fatalf("search 2 sent range 0's primary no request within %v (exit %d):\n%s", startWait, r.code, r.stderr)
	}
	servers[0][0].kill()
	rl.l.Close() // the primary's address now refuses, as a dead server's port does
	outs = append(outs, second.wait(t))
	for range 4 {
		outs = append(outs, run(t, args...))
	}
	for i, r := range outs {
		r.exits(t, 0)
		sameHits(t, fmt.Sprintf("replicated search %d of %d", i+1, len(outs)), c.local, hitLines(r.stdout))
	}
}

// gateway: an HTTP front door over two replicas of one range, one of
// them SIGKILLed while searches stream through it, until a search
// failed over to its sibling.
func (c *corpus) gateway(t *testing.T) {
	replica := func(addr string) *proc {
		return start(t, "-db", c.dbPath, "-serve", addr, "-shard-index", "0", "-shard-count", "1")
	}
	// ra is restarted on its address: it listens on one of its own.
	ra, rb := replica(ownHost()), replica(anyPort)
	gw := start(t, "-db", c.dbPath, "-gateway", anyPort, "-dial-timeout", "3s",
		"-replica-shards", ra.addr+","+rb.addr)
	base := "http://" + gw.addr
	if code, body := get(t, base+"/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz: %d %s", code, body)
	}
	req := requestBody(t, c.queries, 5)
	code, body := post(t, base+"/v1/search", req)
	if code != http.StatusOK {
		t.Fatalf("search: %d %s", code, body)
	}
	sameHits(t, "gateway search", c.local5, decodeResponse(t, body).hitLines())

	// Stream searches and SIGKILL a replica mid-stream; restart it and
	// go again until a failover is on the books.
	failedOver := 0.0
	for attempt := 1; attempt <= 3 && failedOver == 0; attempt++ {
		if attempt > 1 {
			t.Logf("attempt %d: no search was in flight on the killed replica; restarting it", attempt)
			redials := metric(t, base, "swdual_engine_redials_total")
			ra = replica(ra.addr)
			poll(t, "the restarted replica redialed", func() bool {
				return metric(t, base, "swdual_engine_redials_total") > redials
			})
		}
		codes, bodies := stream(base, req, 40, ra.kill)
		for i, code := range codes {
			if code != http.StatusOK {
				t.Fatalf("attempt %d: search %d answered %d during the kill: %s", attempt, i, code, bodies[i])
			}
			sameHits(t, fmt.Sprintf("attempt %d, search %d", attempt, i), c.local5, decodeResponse(t, bodies[i]).hitLines())
		}
		failedOver = metric(t, base, "swdual_engine_failed_over_total")
	}
	if failedOver == 0 {
		t.Fatal("no failover recorded after 3 kills")
	}
	// /v1/stats agrees with /metrics in a quiet moment.
	code, body = get(t, base+"/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("/v1/stats: %d %s", code, body)
	}
	var stats struct {
		Engine struct{ FailedOver uint64 } `json:"engine"`
	}
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatalf("/v1/stats: %v: %s", err, body)
	}
	if got := float64(stats.Engine.FailedOver); got < 1 || got != failedOver {
		t.Errorf("/v1/stats engine.FailedOver = %v, /metrics swdual_engine_failed_over_total = %v", got, failedOver)
	}
	metric(t, base, "swdual_gateway_admitted_total")
	metric(t, base, "swdual_gateway_completed_total")
}

// degradedRange: two ranges of two replicas each behind a gateway.
// Both replicas of range 0 die while searches stream: every answer is
// 2xx, and once the range is dark a 206 whose coverage names it and
// whose hits are a local search of range 1's slice. A one-shot
// coordinator whose range 0 is a dead port prints the same hits and
// exits 3. A gateway started before its servers answers 5xx, then 200.
func (c *corpus) degradedRange(t *testing.T) {
	servers, replicas := c.replicated(t)
	gw := start(t, "-db", c.dbPath, "-gateway", anyPort, "-dial-timeout", "3s", "-replica-shards", replicas)
	base := "http://" + gw.addr
	if code, body := get(t, base+"/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz: %d %s", code, body)
	}
	req := requestBody(t, c.queries, 5)
	code, body := post(t, base+"/v1/search", req)
	full := decodeResponse(t, body)
	if code != http.StatusOK || full.Coverage != nil {
		t.Fatalf("search with every replica up: %d, coverage %v", code, full.Coverage)
	}
	sameHits(t, "full gateway search", c.local5, full.hitLines())

	codes, bodies := stream(base, req, 30, func() {
		for _, p := range servers[0] {
			p.kill()
		}
	})
	for i, code := range codes {
		if code != http.StatusOK && code != http.StatusPartialContent {
			t.Fatalf("search %d answered %d while range 0 was dying: %s", i, code, bodies[i])
		}
	}
	poll(t, "a search answered 206", func() bool {
		code, body = post(t, base+"/v1/search", req)
		return code == http.StatusPartialContent
	})
	part := decodeResponse(t, body)
	cov := part.Coverage
	if cov == nil || len(cov.Skipped) == 0 || cov.Skipped[0].Index != 0 {
		t.Fatalf("206 without a coverage block skipping range 0: %s", body)
	}
	if cov.Fraction <= 0 || cov.Fraction >= 1 {
		t.Errorf("coverage fraction %v, want inside (0,1)", cov.Fraction)
	}
	// The split balances residues, so range 1 starts where the skipped
	// range 0 ends; its slice holds the residues the coverage searched.
	lo := cov.Skipped[0].Hi
	if lo <= 0 || lo >= c.db.Len() {
		t.Fatalf("range 0 ends at %d, want inside (0,%d)", lo, c.db.Len())
	}
	var ids, residues []string
	var sliced int64
	for i := lo; i < c.db.Len(); i++ {
		id, r := c.db.Sequence(i)
		ids, residues = append(ids, id), append(residues, r)
		sliced += int64(len(r))
	}
	if sliced != cov.ResiduesSearched {
		t.Errorf("range 1's slice holds %d residues, the coverage searched %d", sliced, cov.ResiduesSearched)
	}
	slice, err := swdual.FromSequences(ids, residues)
	if err != nil {
		t.Fatal(err)
	}
	slicePath := filepath.Join(c.dir, "range1.fasta")
	if err := slice.SaveFASTA(slicePath); err != nil {
		t.Fatal(err)
	}
	survivors := c.search(t, slicePath, 5)
	sameHits(t, "206 answer", survivors, part.hitLines())
	// The corpus puts top hits on both ranges, so losing either changes
	// the answer.
	onRange1 := make(map[string]bool)
	for _, id := range ids {
		onRange1[id] = true
	}
	var perRange [2]int
	for _, q := range full.Results {
		for _, h := range q.Hits {
			if onRange1[h.SeqID] {
				perRange[1]++
			} else {
				perRange[0]++
			}
		}
	}
	if perRange[0] == 0 || perRange[1] == 0 {
		t.Errorf("top hits on ranges 0 and 1: %v, want some on both", perRange)
	}

	// A one-shot search whose range 0 is a dead address starts with the
	// range dark and skips it.
	dark := reserve(t) + ";" + servers[1][0].addr + "," + servers[1][1].addr
	r := run(t, "-db", c.dbPath, "-query", c.qPath, "-topk", "5", "-replica-shards", dark)
	r.exits(t, 3)
	if !strings.Contains(r.stderr, "shard 0") {
		t.Errorf("partial one-shot's stderr does not name shard 0:\n%s", r.stderr)
	}
	sameHits(t, "partial one-shot", survivors, hitLines(r.stdout))
	if metric(t, base, "swdual_gateway_degraded_total") == 0 {
		t.Error("swdual_gateway_degraded_total not incremented")
	}
	if metric(t, base, "swdual_engine_degraded_searches_total") == 0 {
		t.Error("swdual_engine_degraded_searches_total not incremented")
	}

	// Start order: the coordinator first, on addresses reserved for its
	// servers. With every range dark a search fails 5xx; once both
	// servers are up the redial admits them and the answer is full.
	early0, early1 := reserve(t), reserve(t)
	early := start(t, "-db", c.dbPath, "-gateway", anyPort, "-replica-shards", early0+";"+early1)
	earlyBase := "http://" + early.addr
	if code, body := get(t, earlyBase+"/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz with every server down: %d %s", code, body)
	}
	if code, body := post(t, earlyBase+"/v1/search", req); code < 500 || code > 599 {
		t.Fatalf("search with every server down answered %d, want 5xx: %s", code, body)
	}
	serveRange(t, c.dbPath, early0, 0)
	serveRange(t, c.dbPath, early1, 1)
	poll(t, "the early gateway answered 200", func() bool {
		code, body = post(t, earlyBase+"/v1/search", req)
		return code == http.StatusOK
	})
	if early.exited() {
		t.Fatal("the early coordinator exited")
	}
	sameHits(t, "early gateway", c.local5, decodeResponse(t, body).hitLines())
}

// anyPort has a server listen on a port the kernel picks; the test
// reads it from the line the server logs.
const anyPort = "127.0.0.1:0"

// hosts numbers loopback addresses of the test's own, one per use, for
// an address that must stay free between two listeners on it (a
// restart, a reserved or a dead address): nothing else binds it, and
// connections leave from 127.0.0.1.
var hosts atomic.Uint32

// ownHost returns a port-0 address on a loopback address no other
// listener uses.
func ownHost() string {
	n := hosts.Add(1)
	return fmt.Sprintf("127.78.%d.%d:0", n/250%250, n%250+1)
}

// serveRange starts a -serve process for range i of two of dbPath.
func serveRange(t *testing.T, dbPath, addr string, i int) *proc {
	return start(t, "-db", dbPath, "-serve", addr, "-shard-index", strconv.Itoa(i), "-shard-count", "2")
}

// replicated starts two replicas of each of the database's two ranges,
// servers[range][replica], and returns them with the -replica-shards
// value that names them.
func (c *corpus) replicated(t *testing.T) (servers [2][2]*proc, replicas string) {
	var groups []string
	for i := range servers {
		for j := range servers[i] {
			servers[i][j] = serveRange(t, c.dbPath, anyPort, i)
		}
		groups = append(groups, servers[i][0].addr+","+servers[i][1].addr)
	}
	return servers, strings.Join(groups, ";")
}

// cli is the command that runs the CLI with args: this test binary,
// named swdual (flag's usage line prints argv[0]), in CLI mode.
func cli(ctx context.Context, t *testing.T, args ...string) *exec.Cmd {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Args[0] = "swdual"
	cmd.Env = append(os.Environ(), cliEnv+"=1")
	// Held open until Wait: see TestMain.
	if _, err := cmd.StdinPipe(); err != nil {
		t.Fatal(err)
	}
	return cmd
}

// result is what one finished run of the CLI printed and its exit status.
type result struct {
	args           []string
	stdout, stderr string
	code           int
}

// oneShot is a run of the CLI under way.
type oneShot struct {
	cmd            *exec.Cmd
	cancel         context.CancelFunc
	stdout, stderr bytes.Buffer
}

// begin starts a run of the CLI that must end within runWait.
func begin(t *testing.T, args ...string) *oneShot {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), runWait)
	o := &oneShot{cmd: cli(ctx, t, args...), cancel: cancel}
	o.cmd.Stdout, o.cmd.Stderr = &o.stdout, &o.stderr
	if err := o.cmd.Start(); err != nil {
		cancel()
		t.Fatal(err)
	}
	return o
}

func (o *oneShot) wait(t *testing.T) result {
	t.Helper()
	defer o.cancel()
	err := o.cmd.Wait()
	r := result{args: o.cmd.Args[1:], stdout: o.stdout.String(), stderr: o.stderr.String(), code: o.cmd.ProcessState.ExitCode()}
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) || r.code < 0 {
		t.Fatalf("swdual %s: %v (within %v)\n%s", strings.Join(r.args, " "), err, runWait, r.stderr)
	}
	return r
}

// run runs the CLI to completion.
func run(t *testing.T, args ...string) result {
	t.Helper()
	return begin(t, args...).wait(t)
}

func (r result) exits(t *testing.T, code int) {
	t.Helper()
	if r.code != code {
		t.Fatalf("swdual %s: exit status %d, want %d\n%s", strings.Join(r.args, " "), r.code, code, r.stderr)
	}
}

// refused checks a run exited non-zero and its stderr names what and
// carries the CLI's "swdual:" prefix exactly once (the library's errors
// start with it too).
func (r result) refused(t *testing.T, what string) {
	t.Helper()
	if r.code == 0 {
		t.Fatalf("swdual %s: accepted", strings.Join(r.args, " "))
	}
	if !strings.Contains(r.stderr, what) || strings.Count(r.stderr, "swdual:") != 1 {
		t.Errorf("swdual %s: stderr does not name %s under exactly one swdual: prefix:\n%s", strings.Join(r.args, " "), what, r.stderr)
	}
}

// proc is a server process: -serve or -gateway.
type proc struct {
	cmd  *exec.Cmd
	addr string        // the address it logged it listens on
	done chan struct{} // closed once it was reaped
}

// listening matches the line each server mode logs once it listens.
var listening = regexp.MustCompile(` on (\S+) with `)

// serverLog keeps a server's output and hands over the address its
// first "… on ADDR with …" line names.
type serverLog struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	found chan string // buffered: gets the address once
	sent  bool
}

func (l *serverLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf.Write(p)
	if m := listening.FindSubmatch(l.buf.Bytes()); m != nil && !l.sent {
		l.sent = true
		l.found <- string(m[1])
	}
	return len(p), nil
}

func (l *serverLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// start starts a server and returns once it logged its address. It is
// killed and reaped when t ends, pass or fail.
func start(t *testing.T, args ...string) *proc {
	t.Helper()
	out := &serverLog{found: make(chan string, 1)}
	p := &proc{cmd: cli(context.Background(), t, args...), done: make(chan struct{})}
	p.cmd.Stdout, p.cmd.Stderr = out, out
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		p.cmd.Wait()
		close(p.done)
	}()
	t.Cleanup(p.kill)
	select {
	case p.addr = <-out.found:
		return p
	case <-p.done:
		t.Fatalf("swdual %s exited before listening:\n%s", strings.Join(args, " "), out)
	case <-time.After(startWait):
		t.Fatalf("swdual %s did not listen within %v:\n%s", strings.Join(args, " "), startWait, out)
	}
	return nil
}

// kill SIGKILLs the server and reaps it.
func (p *proc) kill() {
	p.cmd.Process.Kill() // fails only once the process is gone
	<-p.done
}

func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// reserve returns a loopback address nothing listens on, for a server
// to be started on later or for a dead address.
func reserve(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", ownHost())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().String()
}

// relay forwards each connection made to it to one server, both ways.
// Once armed, the first bytes a coordinator sends after the server's
// Welcome (its first request) are forwarded, inFlight closes, and
// nothing more from the server reaches that coordinator: the server
// dies, to the coordinator, with the request unanswered.
type relay struct {
	l        net.Listener
	server   string
	armed    atomic.Bool
	once     sync.Once
	inFlight chan struct{}
}

// newRelay starts a relay to server on an address of its own; t's end
// closes it. A connection through it ends with its coordinator or its
// server, and both are gone by then.
func newRelay(t *testing.T, server string) *relay {
	t.Helper()
	l, err := net.Listen("tcp", ownHost())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	r := &relay{l: l, server: server, inFlight: make(chan struct{})}
	go func() {
		for {
			coord, err := l.Accept()
			if err != nil {
				return
			}
			srv, err := net.Dial("tcp", server)
			if err != nil {
				coord.Close()
				continue
			}
			go r.pipe(coord, srv)
		}
	}()
	return r
}

func (r *relay) addr() string { return r.l.Addr().String() }

// pipe forwards one connection until either end closes, then closes both.
func (r *relay) pipe(coord, srv net.Conn) {
	defer coord.Close()
	defer srv.Close()
	// The coordinator sends nothing after its Hello before the whole
	// Welcome is in, so a byte from it once welcomed is a request.
	var welcomed, holding atomic.Bool
	go func() {
		defer coord.Close()
		defer srv.Close()
		buf := make([]byte, 32<<10)
		for {
			n, err := srv.Read(buf)
			if n > 0 {
				welcomed.Store(true)
				if !holding.Load() {
					if _, err := coord.Write(buf[:n]); err != nil {
						return
					}
				}
			}
			if err != nil {
				return
			}
		}
	}()
	buf := make([]byte, 32<<10)
	for {
		n, err := coord.Read(buf)
		if n > 0 {
			request := welcomed.Load() && r.armed.Load()
			if request {
				holding.Store(true)
			}
			if _, err := srv.Write(buf[:n]); err != nil {
				return
			}
			if request {
				r.once.Do(func() { close(r.inFlight) })
			}
		}
		if err != nil {
			return
		}
	}
}

// poll waits until cond holds, failing after settleWait.
func poll(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(settleWait); !cond(); time.Sleep(50 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("not within %v: %s", settleWait, what)
		}
	}
}

// worker drops the CLI's worker attribution, which varies run to run.
var worker = regexp.MustCompile(` \(worker [^)]*\)`)

// hitLines keeps the query and hit lines of the CLI's output.
func hitLines(out string) string {
	var b strings.Builder
	for _, line := range strings.Split(out, "\n") {
		if line = worker.ReplaceAllString(line, ""); strings.HasPrefix(line, "query") || strings.HasPrefix(line, "  ") {
			b.WriteString(line + "\n")
		}
	}
	return b.String()
}

func sameHits(t *testing.T, what, want, got string) {
	t.Helper()
	if got != want {
		t.Fatalf("%s: hits differ from the local search's\nwant:\n%s\ngot:\n%s", what, want, got)
	}
}

// requestBody is the POST /v1/search body asking topK hits for each of
// the queries.
func requestBody(t *testing.T, queries *swdual.Database, topK int) []byte {
	type query struct {
		ID       string `json:"id"`
		Residues string `json:"residues"`
	}
	req := struct {
		Queries []query `json:"queries"`
		TopK    int     `json:"top_k"`
	}{TopK: topK}
	for i := range queries.Len() {
		id, residues := queries.Sequence(i)
		req.Queries = append(req.Queries, query{id, residues})
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// response is a /v1/search answer, under the JSON names its clients read.
type response struct {
	Results []struct {
		ID   string `json:"id"`
		Hits []struct {
			SeqID string `json:"seq_id"`
			Score int    `json:"score"`
		} `json:"hits"`
	} `json:"results"`
	Coverage *struct {
		ResiduesSearched int64   `json:"residues_searched"`
		Fraction         float64 `json:"fraction"`
		Skipped          []struct {
			Index int `json:"index"`
			Hi    int `json:"hi"`
		} `json:"skipped"`
	} `json:"coverage"`
}

func decodeResponse(t *testing.T, body []byte) *response {
	t.Helper()
	var r response
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatalf("decoding a search response: %v: %s", err, body)
	}
	return &r
}

// hitLines renders the answer as the CLI prints hits.
func (r *response) hitLines() string {
	var b strings.Builder
	for _, q := range r.Results {
		fmt.Fprintf(&b, "query %s:\n", q.ID)
		for _, h := range q.Hits {
			fmt.Fprintf(&b, "  %-24s score %5d\n", h.SeqID, h.Score)
		}
	}
	return b.String()
}

// client bounds each request as runWait bounds a one-shot run.
var client = &http.Client{Timeout: runWait}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := client.Get(url)
	return read(t, resp, err)
}

func post(t *testing.T, url string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	return read(t, resp, err)
}

func read(t *testing.T, resp *http.Response, err error) (int, []byte) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// stream posts body to base's /v1/search n times in a row on another
// goroutine and calls kill once the first answer is in. It returns
// every answer's status and body.
func stream(base string, body []byte, n int, kill func()) ([]int, [][]byte) {
	codes, bodies := make([]int, n), make([][]byte, n)
	first, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for i := range n {
			resp, err := client.Post(base+"/v1/search", "application/json", bytes.NewReader(body))
			if err == nil {
				bodies[i], err = io.ReadAll(resp.Body)
				resp.Body.Close()
				codes[i] = resp.StatusCode
			}
			if err != nil {
				bodies[i] = []byte(err.Error())
			}
			if i == 0 {
				close(first)
			}
		}
	}()
	<-first
	kill()
	<-done
	return codes, bodies
}

// metric reads an unlabelled series from base's /metrics.
func metric(t *testing.T, base, name string) float64 {
	t.Helper()
	code, body := get(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: %d %s", code, body)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("/metrics %s: %v", name, err)
			}
			return f
		}
	}
	t.Fatalf("/metrics has no %s", name)
	return 0
}
