package swdual

// The seeded model of a cluster. A seed draws a topology, a fault
// script and a query stream, runs them on the real ServeShard -> remote
// -> replica -> shard stack over loopback listeners, and checks every
// answer against what the script says it must be. It is the one suite
// of the coordinator's promise to answer what it can while its servers
// come and go; `go test` replays the committed seeds, and
//
//	go test -run '^$' -fuzz FuzzClusterModel -fuzztime 60s -parallel 1 .
//
// draws new ones. A failing seed is saved under
// testdata/fuzz/FuzzClusterModel/ and replayed by every later `go test`.

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"swdual/internal/alphabet"
	"swdual/internal/engine"
	"swdual/internal/enginetest"
	"swdual/internal/faultinject"
	"swdual/internal/master"
	"swdual/internal/replica"
	"swdual/internal/shard"
	"swdual/internal/sw"
	"swdual/internal/synth"
)

// ShardServer is a ServeShard goroutine whose accepted connections are
// tracked, so a test can sever them all — the observable effect of the
// server process dying — or stop it as a server stops on purpose. The
// swdual_test suite uses it too.
type ShardServer struct {
	net.Listener
	mu     sync.Mutex
	conns  []net.Conn
	killed bool
	done   chan struct{} // closed when the server has returned
}

func (s *ShardServer) Accept() (net.Conn, error) {
	nc, err := s.Listener.Accept()
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.killed { // accepted as Kill ran: the dead process never saw it
		nc.Close()
		return nil, net.ErrClosed
	}
	s.conns = append(s.conns, nc)
	return nc, nil
}

// Accepted counts the connections accepted and not yet severed by Kill.
func (s *ShardServer) Accepted() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// Kill severs every accepted connection, then closes the listener: a
// server that stops on its listener's close finds no session left to
// answer from, as with a process that died.
func (s *ShardServer) Kill() {
	s.mu.Lock()
	s.killed = true
	for _, nc := range s.conns {
		nc.Close()
	}
	s.conns = nil
	s.mu.Unlock()
	s.Listener.Close()
}

// Stop closes the listener alone and returns when the server has: it
// drains its sessions, each answering what it holds before it closes.
func (s *ShardServer) Stop() {
	s.Listener.Close()
	<-s.done
}

// run serves on s from a goroutine of its own.
func (s *ShardServer) run(serve func()) {
	go func() {
		defer close(s.done)
		serve()
	}()
}

// listenShard listens on addr for a server that is killed at the
// latest at test cleanup.
func listenShard(t *testing.T, addr string) *ShardServer {
	t.Helper()
	l, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	s := &ShardServer{Listener: l, done: make(chan struct{})}
	t.Cleanup(s.Kill)
	return s
}

// StartShardServer serves slice index of db on addr until killed (at
// the latest at test cleanup).
func StartShardServer(t *testing.T, addr string, db *Database, index, count int, opt Options) *ShardServer {
	t.Helper()
	s := listenShard(t, addr)
	s.run(func() { ServeShard(s, db, index, count, opt) })
	return s
}

// clusterSeeds are the committed seeds, picked from the first 249 so
// that at least two draw each case: a range dark, every range dark and
// a dead first replica at construction; a search parked on a server
// that dies, with and without a sibling to fail over to; every range
// dark; each kind of refused restart, shown, then down, then admitted;
// an injected error; cache hits; both cache settings.
var clusterSeeds = []uint64{2, 8, 9, 49, 55, 159, 160, 172, 173, 186, 201, 212}

func FuzzClusterModel(f *testing.F) {
	for _, seed := range clusterSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		check := enginetest.LeakCheck(t)
		m := newClusterModel(t, seed)
		m.run()
		m.close()
		check()
	})
}

const (
	modelTopK = 5
	// modelWait bounds every search and every wait of the model: a
	// search that has not answered by then hangs.
	modelWait = 20 * time.Second
)

// modelHosts numbers the loopback addresses the model's servers listen
// on, one per server, so that the port a killed server frees stays free
// for its restart: nothing else binds that address, and the
// coordinator's connections leave from 127.0.0.1.
var modelHosts atomic.Uint32

func modelHost() string {
	n := modelHosts.Add(1)
	return fmt.Sprintf("127.77.%d.%d:0", n/250%250, n%250+1)
}

// modelDBs are the database every seed searches and another one of as
// many sequences, which a refused restart may serve.
var modelDBs = sync.OnceValue(func() [2]*Database {
	return [2]*Database{
		{set: synth.RandomSet(alphabet.Protein, 24, 10, 120, 5501)},
		{set: synth.RandomSet(alphabet.Protein, 24, 10, 120, 5502)},
	}
})

// modelQueries is one query set of the stream and its oracle scores.
type modelQueries struct {
	db     *Database
	scores [][]int // [query][subject]: sw.Score
	cached bool    // the coordinator's cache holds its full answer
}

// modelReplica is replica j of range i: its server and the
// coordinator's slot for it, as the model sees them.
type modelReplica struct {
	i, j    int
	addr    string
	wrapped bool                 // served by engine.Serve over a faultinject wrapper
	srv     *ShardServer         // nil while the server is down
	fi      *faultinject.Backend // srv's wrapper, when wrapped
	refusal string               // why the coordinator refuses srv ("" when it serves the range)
	gen     int                  // servers started on addr so far

	// admitted is the server generation the slot's backend is connected
	// to, 0 while the slot is down. refused holds the values its last
	// redial refusal may have ("" for none): the redial loop moves it to
	// target in the background, and a dark range's reason shows it.
	admitted int
	refused  map[string]bool
}

func (r *modelReplica) String() string { return fmt.Sprintf("r%d.%d", r.i, r.j) }

// target is what the slot's refusal becomes once its redial loop next
// tries the server.
func (r *modelReplica) target() string {
	if r.srv == nil {
		return ""
	}
	return r.refusal
}

// stale reports an admitted slot whose server died: its next search
// fails over.
func (r *modelReplica) stale() bool { return r.admitted != 0 && (r.srv == nil || r.admitted != r.gen) }

type clusterModel struct {
	t   *testing.T
	rng *rand.Rand
	// stops says whether each server the script takes down is killed or
	// stopped: a stream of its own, so the choice changes no other draw.
	stops  *rand.Rand
	db     [2]*Database
	params sw.Params
	opt    Options // the coordinator's
	ranges []shard.Range
	reps   [][]*modelReplica
	s      *Searcher
	sets   []*modelQueries // the stream so far, for repeats
	// probe is the query set that polls a dark range until its reason
	// settles. Never answered in full, it is never cached; it draws
	// from its own stream so that how often it polls changes no draw
	// of the script.
	probe *modelQueries

	// The coordinator's counters as the script has them.
	redials, failedOver, degraded, hits, misses uint64
}

// newClusterModel draws the topology and builds the coordinator over
// it: 1–4 ranges × 1–3 replicas, each server started now or left for
// the script to start after the coordinator, some behind a fault
// injector, and the coordinator's cache on or off.
func newClusterModel(t *testing.T, seed uint64) *clusterModel {
	m := &clusterModel{t: t, rng: rand.New(rand.NewPCG(seed, 0x5eed)), stops: rand.New(rand.NewPCG(seed, 2)), db: modelDBs()}
	var err error
	if m.params, err = (Options{}).params(); err != nil {
		t.Fatal(err)
	}
	m.probe = m.queries(rand.New(rand.NewPCG(seed, 1)))
	m.ranges = shard.RangesFor(m.db[0].set, 1+m.rng.IntN(4), shard.BalancedResidues)
	m.opt = Options{Pool: "cpu=1", TopK: modelTopK, DialTimeout: modelWait, Cache: m.rng.IntN(2) == 0}
	for i := range m.ranges {
		var addrs []string
		m.reps = append(m.reps, nil)
		for j := range 1 + m.rng.IntN(3) {
			r := &modelReplica{i: i, j: j, addr: modelHost(), wrapped: m.rng.IntN(2) == 0, refused: map[string]bool{"": true}}
			m.reps[i] = append(m.reps[i], r)
			if m.rng.IntN(3) > 0 {
				m.start(r, "")
				r.admitted = r.gen
			} else { // started after the coordinator
				m.note("later %v", r)
				l, err := net.Listen("tcp", r.addr)
				if err != nil {
					t.Fatal(err)
				}
				r.addr = l.Addr().String()
				l.Close()
			}
			addrs = append(addrs, r.addr)
		}
		m.opt.ReplicaShards = append(m.opt.ReplicaShards, addrs)
	}
	if m.s, err = NewSearcher(m.db[0], m.opt); err != nil {
		t.Fatal(err)
	}
	t.Logf("seed %d: replicas %v, cache %v", seed, m.opt.ReplicaShards, m.opt.Cache)
	return m
}

// start starts r's server: one serving its range when how is "", or one
// the coordinator refuses — another range, another database, a lower
// TopK, other gaps or another matrix.
func (m *clusterModel) start(r *modelReplica, how string) {
	db, index, opt := m.db[0], r.i, Options{Pool: "cpu=1", TopK: modelTopK}
	mismatch := func(served *Database, k int) string {
		rs := shard.RangesFor(served.set, len(m.ranges), shard.BalancedResidues)[k]
		return fmt.Sprintf("remote %s: server: engine: database checksum mismatch (client %08x, server %08x)", r.addr,
			m.db[0].set.Slice(m.ranges[r.i].Lo, m.ranges[r.i].Hi).Checksum(), served.set.Slice(rs.Lo, rs.Hi).Checksum())
	}
	r.refusal = ""
	switch how {
	case "range":
		index = (r.i + 1) % len(m.ranges)
		r.refusal = mismatch(db, index)
	case "database":
		db = m.db[1]
		r.refusal = mismatch(db, r.i)
	case "topk":
		opt.TopK = modelTopK - 1
		r.refusal = fmt.Sprintf("server %s caps hits at TopK %d, below the coordinator's TopK %d", r.addr, opt.TopK, modelTopK)
	case "gaps":
		opt.GapStart = 11
		r.refusal = fmt.Sprintf("server %s scores with BLOSUM62 11/2, the coordinator with BLOSUM62 10/2", r.addr)
	case "matrix":
		opt.Matrix = "PAM250"
		r.refusal = fmt.Sprintf("server %s scores with PAM250 10/2, the coordinator with BLOSUM62 10/2", r.addr)
	}
	if r.refusal != "" {
		r.refusal = fmt.Sprintf("replica %d refused on redial: %s", r.j, r.refusal)
	}
	if r.wrapped && how == "" {
		cfg, err := opt.engineConfig()
		if err != nil {
			m.t.Fatal(err)
		}
		eng, err := engine.New(db.set.Slice(m.ranges[r.i].Lo, m.ranges[r.i].Hi), cfg)
		if err != nil {
			m.t.Fatal(err)
		}
		srv, fi := listenShard(m.t, r.addr), faultinject.Wrap(eng)
		srv.run(func() {
			engine.Serve(srv, fi)
			fi.Close()
		})
		r.srv, r.fi = srv, fi
	} else {
		r.srv, r.fi = StartShardServer(m.t, r.addr, db, index, len(m.ranges), opt), nil
	}
	r.addr = r.srv.Addr().String()
	r.gen++
	if r.admitted == 0 {
		r.refused[r.target()] = true
	}
	m.note("start %v %s", r, cmp.Or(how, "serving"))
}

// kill takes r's server down: killed, or stopped gracefully. With no
// search on it the two look alike to the coordinator: every connection
// closes, and the slot's next search fails over.
func (m *clusterModel) kill(r *modelReplica) {
	if m.graceful() {
		m.note("stop %v", r)
		r.srv.Stop()
		m.gone(r)
	} else {
		m.sever(r)
	}
}

// sever kills r's server.
func (m *clusterModel) sever(r *modelReplica) {
	m.note("kill %v", r)
	r.srv.Kill()
	m.gone(r)
}

// graceful draws whether the next server the script takes down stops
// rather than dies.
func (m *clusterModel) graceful() bool { return m.stops.IntN(2) == 0 }

// gone records that r's server is down.
func (m *clusterModel) gone(r *modelReplica) {
	r.srv, r.fi = nil, nil
	if r.admitted == 0 {
		r.refused[""] = true
	}
}

// note logs one event of the script.
func (m *clusterModel) note(format string, args ...any) {
	m.t.Helper()
	m.t.Logf(format, args...)
}

// run plays the script: a first batch of searches over the cluster as
// it was built, then faults at quiescent points between batches
// (phase 1), then faults concurrent with searches (phase 2).
func (m *clusterModel) run() {
	m.batch()
	m.note("script")
	for range 4 + m.rng.IntN(8) {
		m.step()
	}
	m.note("phase 2")
	m.chaos()
}

// step draws one fault or one batch of searches, then settles.
func (m *clusterModel) step() {
	var up, down, wrapped, answerers []*modelReplica
	for i, reps := range m.reps {
		for _, r := range reps {
			switch {
			case r.srv == nil:
				down = append(down, r)
			case r.refusal == "" && r.wrapped:
				wrapped = append(wrapped, r)
				fallthrough
			default:
				up = append(up, r)
			}
		}
		if a := m.answerer(i); a != nil && a.wrapped {
			answerers = append(answerers, a)
		}
	}
	pick := func(rs []*modelReplica) *modelReplica { return rs[m.rng.IntN(len(rs))] }
	switch n := m.rng.IntN(12); {
	case n < 2 && len(up) > 0:
		m.kill(pick(up))
	case n < 5 && len(down) > 0:
		m.start(pick(down), "")
	case n < 6 && len(down) > 0:
		hows := []string{"database", "topk", "gaps", "matrix"}
		if len(m.ranges) > 1 {
			hows = append(hows, "range")
		}
		m.start(pick(down), hows[m.rng.IntN(len(hows))])
	case n < 7 && len(wrapped) > 0:
		r, latency := pick(wrapped), time.Duration(1+m.rng.IntN(20))*time.Millisecond
		r.fi.SetRules(faultinject.Rule{Op: faultinject.OpSearch, Fault: faultinject.Fault{Latency: latency}})
		m.note("latency %v %v", r, latency)
	case n < 8 && len(answerers) > 0:
		m.injectError(pick(answerers).i)
	case n < 9 && len(answerers) > 0:
		m.parkAndKill(pick(answerers))
	default:
		m.batch()
	}
	m.settle()
}

// answerer is the replica whose server answers range i's next search:
// the first admitted slot whose server still lives.
func (m *clusterModel) answerer(i int) *modelReplica {
	for _, r := range m.reps[i] {
		if r.admitted != 0 && !r.stale() {
			return r
		}
	}
	return nil
}

// arm puts fault on r's next search, in place of r's other rules.
func arm(r *modelReplica, fault faultinject.Fault) {
	r.fi.SetRules(faultinject.Rule{Op: faultinject.OpSearch, After: r.fi.Calls(faultinject.OpSearch) + 1, Count: 1, Fault: fault})
}

// injectError fails the next search of range i on its server, when
// that is one behind a fault injector: the coordinator fails the whole
// search, naming the range, since the error would recur on every
// replica. A failing scatter cancels its siblings, so a search first
// retires every slot whose server died: cancelled, it might not have.
func (m *clusterModel) injectError(i int) {
	m.lone(m.fresh())
	m.settle()
	r := m.answerer(i)
	if r == nil || !r.wrapped {
		return
	}
	m.note("error %v", r)
	text := fmt.Sprintf("injected fault %d", m.rng.IntN(1000))
	arm(r, faultinject.Fault{Err: errors.New(text)})
	if m.opt.Cache {
		m.misses++
	}
	_, err := m.search(m.fresh(), m.rng.IntN(2) == 0)
	if want := fmt.Sprintf("shard %d [%d,%d): remote %s: %s", i, m.ranges[i].Lo, m.ranges[i].Hi, r.addr, text); err == nil || err.Error() != want {
		m.t.Fatalf("search with %v's server failing: %v, want %q", r, err, want)
	}
	m.note("failed: %v", err)
}

// parkAndKill parks r's next search on its server and takes the server
// down while the search waits there. Killed, it loses the search: the
// range fails over to its next live replica, or goes dark naming the
// lost connection. Stopped, it drains: the search answers in full from
// r, and the slot's next search fails over.
func (m *clusterModel) parkAndKill(r *modelReplica) {
	m.note("park %v", r)
	gate := faultinject.NewGate()
	arm(r, faultinject.Fault{Gate: gate})
	q := m.fresh()
	var rep *Report
	var err error
	done := make(chan struct{})
	go func() {
		defer close(done)
		rep, err = m.search(q, false)
	}()
	select {
	case <-gate.Entered():
	case <-time.After(modelWait):
		m.t.Fatalf("the search never reached %v", r)
	}
	if !m.graceful() {
		m.sever(r)
		want := m.expect(q)
		<-done
		gate.Release()
		m.judge(q, want, rep, err)
		return
	}
	m.note("stop %v", r)
	want := m.expect(q)
	srv, stopped := r.srv, make(chan struct{})
	go func() {
		defer close(stopped)
		srv.Stop()
	}()
	// A server that returned at once has closed its engine under the
	// parked search; one that drains holds until the search answers.
	select {
	case <-stopped:
	case <-time.After(50 * time.Millisecond):
	}
	gate.Release()
	<-done
	<-stopped
	m.gone(r)
	m.judge(q, want, rep, err)
}

// fresh draws a query set the stream has not searched yet.
func (m *clusterModel) fresh() *modelQueries {
	q := m.queries(m.rng)
	m.sets = append(m.sets, q)
	return q
}

// queries draws a set of 1–3 queries and scores them.
func (m *clusterModel) queries(rng *rand.Rand) *modelQueries {
	set := synth.RandomSet(alphabet.Protein, 1+rng.IntN(3), 8, 60, rng.Int64())
	q := &modelQueries{db: &Database{set: set}}
	for _, query := range set.Seqs {
		row := make([]int, m.db[0].set.Len())
		for j, subject := range m.db[0].set.Seqs {
			row[j] = sw.Score(m.params, query.Residues, subject.Residues)
		}
		q.scores = append(q.scores, row)
	}
	return q
}

// batch runs 1–8 callers, with and without deadlines, over fresh and
// repeated query sets. The first runs alone and reaches the cluster, so
// it retires every dead server's slot; the rest then run concurrently,
// no two on one query set.
func (m *clusterModel) batch() {
	first := m.fresh()
	if i := m.rng.IntN(len(m.sets)); !m.sets[i].cached {
		first = m.sets[i]
	}
	m.lone(first)
	m.settle()
	var group []*modelQueries
	for range m.rng.IntN(8) {
		q := m.fresh()
		if i := m.rng.IntN(len(m.sets)); !slices.Contains(group, m.sets[i]) {
			q = m.sets[i]
		}
		group = append(group, q)
	}
	wants, reps, errs := make([]modelAnswer, len(group)), make([]*Report, len(group)), make([]error, len(group))
	var wg sync.WaitGroup
	for k, q := range group {
		wants[k] = m.expect(q)
		wg.Add(1)
		go func(deadline bool) {
			defer wg.Done()
			reps[k], errs[k] = m.search(q, deadline)
		}(m.rng.IntN(2) == 0)
	}
	wg.Wait()
	for k, q := range group {
		m.judge(q, wants[k], reps[k], errs[k])
	}
}

// lone runs one search alone, under a deadline or not, and judges it.
func (m *clusterModel) lone(q *modelQueries) { m.once(q, m.rng.IntN(2) == 0) }

func (m *clusterModel) once(q *modelQueries, deadline bool) {
	want := m.expect(q)
	rep, err := m.search(q, deadline)
	m.judge(q, want, rep, err)
}

// search runs one search, under a deadline or not, and fails it if it
// has not answered within modelWait. It may run on any goroutine.
func (m *clusterModel) search(q *modelQueries, deadline bool) (*Report, error) {
	ctx, cancel := context.Background(), context.CancelFunc(func() {})
	if deadline {
		ctx, cancel = context.WithTimeout(ctx, modelWait)
	}
	defer cancel()
	var rep *Report
	var err error
	done := make(chan struct{})
	go func() {
		defer close(done)
		rep, err = m.s.Search(ctx, q.db, SearchOptions{})
	}()
	select {
	case <-done:
		return rep, err
	case <-time.After(modelWait):
		return nil, fmt.Errorf("search hung for %v", modelWait)
	}
}

// modelAnswer is what one search must answer: from the cache, or the
// ranges live searched and the rest dark. failed[i] names the server
// of the last slot dark range i failed over from in this search, and
// reasons[i] lists what its reason may read.
type modelAnswer struct {
	cached  bool
	live    []bool
	failed  []string
	reasons [][]string
}

// expect is the script's answer to the next search of q, and applies
// what that search does to the coordinator: cache counters, slots
// failed over, the count of partial answers.
func (m *clusterModel) expect(q *modelQueries) modelAnswer {
	n := len(m.reps)
	a := modelAnswer{cached: m.opt.Cache && q.cached, live: make([]bool, n), failed: make([]string, n), reasons: make([][]string, n)}
	if a.cached {
		m.hits++
		for i := range a.live {
			a.live[i] = true
		}
		return a
	}
	if m.opt.Cache {
		m.misses++
	}
	for i, reps := range m.reps {
		for _, r := range reps {
			if r.admitted == 0 {
				continue
			}
			if a.live[i] = !r.stale(); a.live[i] {
				break
			}
			// Retired: the slot's redial loop starts.
			r.admitted, r.refused = 0, map[string]bool{"": true, r.target(): true}
			m.failedOver++
			a.failed[i] = r.addr
		}
		if !a.live[i] {
			a.reasons[i] = m.darkReasons(i, a.failed[i])
		}
	}
	switch {
	case !slices.Contains(a.live, false):
		q.cached = m.opt.Cache
	case slices.Contains(a.live, true):
		m.degraded++
	}
	return a
}

// darkReasons lists what dark range i's reason may read: the
// connection the search lost last, or else the first slot's refusal
// that its redial may have recorded, or "down".
func (m *clusterModel) darkReasons(i int, failed string) []string {
	n := len(m.reps[i])
	if failed != "" {
		return []string{fmt.Sprintf("all %d replicas unavailable: remote %s: connection lost", n, failed)}
	}
	var out []string
	for _, r := range m.reps[i] {
		for v := range r.refused {
			if v != "" {
				out = append(out, fmt.Sprintf("all %d replicas unavailable: %s", n, v))
			}
		}
		if !r.refused[""] {
			return out
		}
	}
	return append(out, fmt.Sprintf("all %d replicas down (reconnecting)", n))
}

// judge fails the test unless one search's answer is want: the kind
// want says, over exactly the ranges it says, each dark one for a
// reason it allows. A reason that names no lost connection narrows the
// model's slots to it: those before the slot it names recorded no
// refusal.
func (m *clusterModel) judge(q *modelQueries, want modelAnswer, rep *Report, err error) {
	m.t.Helper()
	live, wrong := m.kind(q, rep, err)
	if wrong != nil || !slices.Equal(live, want.live) {
		m.t.Fatalf("answer over ranges %v (%v), want ranges %v", live, cmp.Or(wrong, err), want.live)
	}
	reasons, what := map[int]string{}, fmt.Sprintf("full (cached %v)", want.cached)
	var dark *replica.ErrRangeUnavailable
	if errors.As(err, &dark) {
		reasons[0], what = dark.Reason(), "every range dark"
	} else if rep.Coverage != nil {
		for _, sk := range rep.Coverage.Skipped {
			reasons[sk.Index], what = sk.Reason, "partial"
		}
	}
	for i, reps := range m.reps {
		got, isDark := reasons[i]
		if !isDark {
			continue
		}
		if !slices.ContainsFunc(want.reasons[i], func(w string) bool { return strings.HasPrefix(got, w) }) {
			m.t.Fatalf("range %d dark because %q, want one of %q", i, got, want.reasons[i])
		}
		m.note("range %d dark: %s", i, got)
		v := strings.TrimPrefix(got, fmt.Sprintf("all %d replicas unavailable: ", len(reps)))
		for _, r := range reps {
			if want.failed[i] != "" {
				break
			}
			if r.refused[v] {
				r.refused = map[string]bool{v: true, r.target(): true}
				break
			}
			r.refused = map[string]bool{"": true, r.target(): true}
		}
	}
	m.note("%s", what)
}

// kind returns the ranges an answer searched, or an error when it is
// none of the three kinds: the oracle's hits over every range, or over
// the ranges its Coverage leaves, or range 0's typed error with every
// range dark (no range searched). It may run on any goroutine.
func (m *clusterModel) kind(q *modelQueries, rep *Report, err error) ([]bool, error) {
	live := make([]bool, len(m.ranges))
	if err != nil {
		var dark *replica.ErrRangeUnavailable
		if !errors.As(err, &dark) || errors.Is(err, engine.ErrClosed) || dark.Index != 0 || dark.Replicas != len(m.reps[0]) ||
			err.Error() != fmt.Sprintf("replica shard 0 [%d,%d): %s", m.ranges[0].Lo, m.ranges[0].Hi, dark.Reason()) {
			return nil, fmt.Errorf("search: %v, want hits or range 0's replica.ErrRangeUnavailable", err)
		}
		return live, nil
	}
	for i := range live {
		live[i] = true
	}
	if cov := rep.Coverage; cov != nil {
		for k, sk := range cov.Skipped {
			if i := sk.Index; i < 0 || i >= len(live) || k > 0 && i <= cov.Skipped[k-1].Index || sk.Lo != m.ranges[i].Lo || sk.Hi != m.ranges[i].Hi ||
				!strings.HasPrefix(sk.Reason, fmt.Sprintf("all %d replicas ", len(m.reps[i]))) {
				return nil, fmt.Errorf("coverage skips %+v of ranges %v", sk, m.ranges)
			}
			live[sk.Index] = false
		}
		if !slices.Contains(live, false) || !slices.Contains(live, true) || cov.RangesTotal != len(live) ||
			cov.RangesSearched != len(live)-len(cov.Skipped) || cov.ResiduesSearched != m.residues(live) ||
			cov.ResiduesTotal != m.db[0].TotalResidues() {
			return nil, fmt.Errorf("coverage %+v is no partial answer", cov)
		}
	}
	if len(rep.Results) != len(q.scores) {
		return nil, fmt.Errorf("%d results for %d queries", len(rep.Results), len(q.scores))
	}
	for qi, scores := range q.scores {
		var want []master.Hit
		for i, r := range m.ranges {
			for j := r.Lo; live[i] && j < r.Hi; j++ {
				want = append(want, master.Hit{SeqIndex: j, SeqID: m.db[0].set.Seqs[j].ID, Score: scores[j]})
			}
		}
		slices.SortStableFunc(want, func(a, b master.Hit) int {
			if master.HitBefore(a, b) {
				return -1
			}
			return 0
		})
		want = want[:min(len(want), modelTopK)]
		if res := rep.Results[qi]; res.QueryID != q.db.set.Seqs[qi].ID || !slices.Equal(res.Hits, want) {
			return nil, fmt.Errorf("query %d over ranges %v: %s %+v, want the oracle's %+v", qi, live, res.QueryID, res.Hits, want)
		}
	}
	return live, nil
}

func (m *clusterModel) residues(live []bool) int64 {
	var n int64
	for i, r := range m.ranges {
		if live[i] {
			n += m.db[0].set.Slice(r.Lo, r.Hi).TotalResidues()
		}
	}
	return n
}

// settle waits until the coordinator is where the script says the
// background leaves it: every down slot whose server serves its range
// redialed and admitted, and every dark range's reason showing its
// last refusal (searching that range until it does; with every range
// dark only the first one's shows). Then it checks the counters.
func (m *clusterModel) settle() {
	m.t.Helper()
	deadline := time.Now().Add(modelWait)
	for {
		var joining []*modelReplica
		for _, reps := range m.reps {
			for _, r := range reps {
				if r.admitted == 0 && r.srv != nil && r.refusal == "" {
					joining = append(joining, r)
				}
			}
		}
		want := m.redials + uint64(len(joining))
		for got := m.s.Stats().Redials; got != want; got = m.s.Stats().Redials {
			if got > want || time.Now().After(deadline) {
				m.t.Fatalf("%d redials, want %d", got, want)
			}
			time.Sleep(time.Millisecond)
		}
		m.redials = want
		for _, r := range joining {
			r.admitted, r.refused = r.gen, map[string]bool{"": true}
		}
		unsettled, dark := false, 0
		for i := range m.reps {
			if m.answerer(i) == nil {
				dark++
				unsettled = unsettled || len(m.darkReasons(i, "")) > 1 && (i == 0 || dark < len(m.reps))
			}
		}
		if !unsettled {
			break
		}
		if time.Now().After(deadline) {
			m.t.Fatalf("a dark range's reason never showed its redial's refusal")
		}
		time.Sleep(5 * time.Millisecond)
		m.once(m.probe, false)
	}
	st := m.s.Stats()
	if st.FailedOver != m.failedOver || st.DegradedSearches != m.degraded || st.CacheHits != m.hits || st.CacheMisses != m.misses {
		m.t.Fatalf("stats: %d failed over, %d partial, cache %d hits %d misses; want %d, %d, %d, %d",
			st.FailedOver, st.DegradedSearches, st.CacheHits, st.CacheMisses, m.failedOver, m.degraded, m.hits, m.misses)
	}
}

// chaos is phase 2: 1–4 callers search while servers die, restart,
// are refused and slow down under them. Each answer must still be one
// of the three kinds, judged by itself. Then every server serves its
// range again and full answers must return.
func (m *clusterModel) chaos() {
	stop := make(chan struct{})
	errs := make(chan error, 4)
	var wg sync.WaitGroup
	for range 1 + m.rng.IntN(4) {
		wg.Add(1)
		go func(rng *rand.Rand) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				q := m.sets[rng.IntN(len(m.sets))]
				rep, err := m.search(q, rng.IntN(2) == 0)
				if _, err := m.kind(q, rep, err); err != nil {
					errs <- err
					return
				}
			}
		}(rand.New(rand.NewPCG(m.rng.Uint64(), 0)))
	}
	var all []*modelReplica
	for _, reps := range m.reps {
		all = append(all, reps...)
	}
	for range 4 + m.rng.IntN(8) {
		time.Sleep(time.Duration(m.rng.IntN(5)) * time.Millisecond)
		switch r := all[m.rng.IntN(len(all))]; {
		case r.srv != nil && m.rng.IntN(3) > 0:
			m.kill(r)
		case r.fi != nil:
			r.fi.SetRules(faultinject.Rule{Op: faultinject.OpSearch, Fault: faultinject.Fault{Latency: time.Millisecond}})
		case r.srv == nil:
			m.start(r, []string{"", "", "gaps", "database"}[m.rng.IntN(4)])
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		m.t.Fatal(err)
	}
	for _, r := range all {
		if r.srv != nil && r.refusal != "" {
			m.kill(r)
		}
		if r.srv == nil {
			m.start(r, "")
		}
	}
	for deadline := time.Now().Add(modelWait); ; time.Sleep(5 * time.Millisecond) {
		rep, err := m.search(m.probe, false)
		if _, wrong := m.kind(m.probe, rep, err); wrong != nil {
			m.t.Fatal(wrong)
		}
		if err == nil && rep.Coverage == nil {
			return
		}
		if time.Now().After(deadline) {
			m.t.Fatalf("still partial %v after every server came back: %v", modelWait, err)
		}
	}
}

// close closes the coordinator from four goroutines at once, checks
// that a search after Close fails with engine.ErrClosed, a fresh one
// and, with the cache on, one the cache holds, and kills every server.
func (m *clusterModel) close() {
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for k := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[k] = m.s.Close()
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		m.t.Fatalf("close: %v", err)
	}
	after := []*modelQueries{m.fresh()}
	if i := slices.IndexFunc(m.sets, func(q *modelQueries) bool { return q.cached }); i >= 0 {
		after = append(after, m.sets[i])
	}
	for _, q := range after {
		if _, err := m.search(q, false); !errors.Is(err, engine.ErrClosed) {
			m.t.Fatalf("search after Close (cached %v): %v, want engine.ErrClosed", q.cached, err)
		}
	}
	for _, reps := range m.reps {
		for _, r := range reps {
			if r.srv != nil {
				m.kill(r)
			}
		}
	}
}
