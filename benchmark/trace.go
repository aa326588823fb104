package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"swdual"
	"swdual/internal/engine"
	"swdual/internal/gateway"
	"swdual/internal/master"
	"swdual/internal/remote"
	"swdual/internal/replica"
	"swdual/internal/scoring"
	"swdual/internal/seq"
	"swdual/internal/shard"
	"swdual/internal/sw"
)

// span is one call across a layer boundary, recorded by a wrapper the
// benchmark put there. Times are nanoseconds since the recorder's epoch.
// Part tells apart the instances of a layer (shard index); Parent is the
// "layer/part" key of the span that caused this one, "" for a root.
type span struct {
	Layer  string `json:"layer"`
	Part   int    `json:"part"`
	Trace  string `json:"trace"`
	Parent string `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) key() string { return layerKey(s.Layer, s.Part) }

// layerKey names one instance of a layer, as spans name their parent.
func layerKey(layer string, part int) string { return fmt.Sprintf("%s/%d", layer, part) }

// recorder keeps spans in a buffer allocated up front, so recording is
// one atomic add and one store; spans past the end are counted, not kept.
type recorder struct {
	epoch   time.Time
	buf     []span
	next    atomic.Int64
	dropped atomic.Int64
}

func newRecorder(capacity int) *recorder {
	return &recorder{epoch: time.Now(), buf: make([]span, capacity)}
}

func (r *recorder) record(layer string, part int, parent, trace string, start, end time.Time) {
	i := r.next.Add(1) - 1
	if i >= int64(len(r.buf)) {
		r.dropped.Add(1)
		return
	}
	r.buf[i] = span{Layer: layer, Part: part, Trace: trace, Parent: parent,
		Start: int64(start.Sub(r.epoch)), End: int64(end.Sub(r.epoch))}
}

// spans returns what was recorded; call it once recording has stopped.
func (r *recorder) spans() []span {
	return r.buf[:min(r.next.Load(), int64(len(r.buf)))]
}

// dump writes the spans as one JSON array.
func (r *recorder) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(r.spans()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedBackend passes every call through and records a span around
// Search; the trace id is the request's first query ID.
type tracedBackend struct {
	engine.Backend
	rec    *recorder
	layer  string
	part   int
	parent string
}

func (b *tracedBackend) Search(ctx context.Context, queries *seq.Set, opts engine.SearchOptions) (*master.Report, error) {
	start := time.Now()
	rep, err := b.Backend.Search(ctx, queries, opts)
	trace := ""
	if queries != nil && queries.Len() > 0 {
		trace = traceID(queries.Seqs[0].ID)
	}
	b.rec.record(b.layer, b.part, b.parent, trace, start, time.Now())
	return rep, err
}

// tracedWorker records a span around each task a pool worker runs.
type tracedWorker struct {
	master.ProfiledWorker
	rec    *recorder
	part   int
	parent string
}

func (w *tracedWorker) Run(qi int, q *seq.Sequence, db *seq.Set) master.QueryResult {
	start := time.Now()
	res := w.ProfiledWorker.Run(qi, q, db)
	w.rec.record("worker", w.part, w.parent, traceID(q.ID), start, time.Now())
	return res
}

func (w *tracedWorker) RunProfiled(qi int, q *seq.Sequence, prof *scoring.QueryProfiles, db *seq.Set) master.QueryResult {
	start := time.Now()
	res := w.ProfiledWorker.RunProfiled(qi, q, prof, db)
	w.rec.record("worker", w.part, w.parent, traceID(q.ID), start, time.Now())
	return res
}

// tracedEngine builds one engine.Searcher the way swdual.NewSearcher
// does for Options{Pool: "cpu=N"}, with every worker and the engine
// itself wrapped.
func tracedEngine(rec *recorder, db *seq.Set, cpus, part int, parent string, cache bool) (engine.Backend, error) {
	params := sw.DefaultParams()
	self := layerKey("engine", part)
	workers := master.BuildPoolWorkers(params, master.PoolSpec{CPU: cpus}, 0)
	for i, w := range workers {
		pw, ok := w.(master.ProfiledWorker)
		if !ok {
			return nil, fmt.Errorf("worker %s is not a ProfiledWorker", w.Name())
		}
		workers[i] = &tracedWorker{ProfiledWorker: pw, rec: rec, part: part, parent: self}
	}
	cfg := engine.Config{Params: params, Workers: workers, Cache: cache}
	if cache {
		cfg.CacheSize = 256
	}
	eng, err := engine.New(db, cfg)
	if err != nil {
		return nil, err
	}
	return &tracedBackend{Backend: eng, rec: rec, layer: "engine", part: part, parent: parent}, nil
}

// buildTraced constructs the same topology as buildPublic from the
// internal constructors, with a recording wrapper at every layer
// boundary: client → (gateway) → shard → replica → remote → engine →
// worker. trace.overhead_ratio compares its throughput with the public
// topology's, which also shows the two are the same machine.
func buildTraced(w workload, corpusPath string, rec *recorder) (st *stack, err error) {
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
	set := db.Set()

	const client = "client/0"
	var top engine.Backend
	if !w.cluster {
		if top, err = tracedEngine(rec, set, 2, 0, client, w.cache); err != nil {
			return nil, err
		}
	} else {
		ranges := shard.RangesFor(set, 2, shard.BalancedResidues)
		var backends []engine.Backend
		fail := func(err error) (*stack, error) {
			for _, b := range backends {
				b.Close()
			}
			return nil, err
		}
		for i, r := range ranges {
			slice := set.Slice(r.Lo, r.Hi)
			eng, err := tracedEngine(rec, slice, 1, i, layerKey("remote", i), false)
			if err != nil {
				return fail(err)
			}
			st.onClose(eng.Close)
			addr, err := st.listen(func(l net.Listener) error { return engine.Serve(l, eng) })
			if err != nil {
				return fail(err)
			}
			want := slice.Checksum()
			dial := func() (engine.Backend, error) {
				rb, err := remote.DialTimeout(addr, want, 0)
				if err != nil {
					return nil, err
				}
				return &tracedBackend{Backend: rb, rec: rec, layer: "remote", part: i,
					parent: layerKey("replica", i)}, nil
			}
			rb, err := dial()
			if err != nil {
				return fail(err)
			}
			rs, err := replica.NewSet(fmt.Sprintf("shard %d [%d,%d)", i, r.Lo, r.Hi), want,
				[]replica.Replica{{Backend: rb, Redial: dial}}, replica.Config{Index: i})
			if err != nil {
				rb.Close()
				return fail(err)
			}
			backends = append(backends, &tracedBackend{Backend: rs, rec: rec, layer: "replica", part: i, parent: "shard/0"})
		}
		sh, err := shard.WithBackends(set, shard.BalancedResidues, ranges, backends, 0)
		if err != nil {
			return fail(err)
		}
		sh.EnableCache(256, 0)
		top = &tracedBackend{Backend: sh, rec: rec, layer: "shard", parent: client}
	}

	st.rec = rec
	st.onClose(top.Close)
	st.stats = top.Stats
	if !w.http {
		st.search = func(ctx context.Context, r *request) ([][]master.Hit, error) {
			queries := seq.NewSet(top.Alphabet())
			for i := range r.ids {
				if err := queries.Add(r.ids[i], "", []byte(r.residues[i])); err != nil {
					return nil, err
				}
			}
			rep, err := top.Search(ctx, queries, engine.SearchOptions{})
			if err != nil {
				return nil, err
			}
			return reportHits(rep), nil
		}
		return st, nil
	}
	gw, err := gateway.New(top, gateway.Config{DBMappedBytes: db.MappedBytes()})
	if err != nil {
		return nil, err
	}
	err = st.serveGateway(gw.Serve, gw.Close, func() uint64 { c := gw.Counters(); return c.ShedQueue + c.ShedClient })
	if err != nil {
		return nil, err
	}
	return st, nil
}

// interval is a half-open time range in recorder nanoseconds.
type interval struct{ lo, hi int64 }

// covered returns how much of [lo,hi) the intervals cover, counting
// overlaps once.
func covered(lo, hi int64, ivs []interval) int64 {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var total int64
	at := lo
	for _, iv := range ivs {
		a, b := max(iv.lo, at), min(iv.hi, hi)
		if b > a {
			total += b - a
			at = b
		}
	}
	return total
}

// layerTimes is what the spans of one layer add up to.
type layerTimes struct {
	spans int
	total int64 // Σ duration
	self  int64 // Σ (duration − time covered by child spans)
}

// selfTimes computes, per layer, each span's duration minus the part of
// it its children cover. A span's children are the spans of the same
// trace whose Parent is its key.
func selfTimes(spans []span) map[string]*layerTimes {
	type group struct{ trace, parent string }
	children := make(map[group][]interval)
	for _, s := range spans {
		if s.Parent != "" {
			g := group{s.Trace, s.Parent}
			children[g] = append(children[g], interval{s.Start, s.End})
		}
	}
	out := make(map[string]*layerTimes)
	for _, s := range spans {
		lt := out[s.Layer]
		if lt == nil {
			lt = &layerTimes{}
			out[s.Layer] = lt
		}
		dur := s.End - s.Start
		lt.spans++
		lt.total += dur
		lt.self += dur - covered(s.Start, s.End, children[group{s.Trace, s.key()}])
	}
	return out
}

// stragglerNS is, per trace, the time between the first and the last
// span of the layer ending, averaged over traces with at least two.
func stragglerNS(spans []span, layer string) float64 {
	first, last := map[string]int64{}, map[string]int64{}
	n := map[string]int{}
	for _, s := range spans {
		if s.Layer != layer {
			continue
		}
		if n[s.Trace] == 0 || s.End < first[s.Trace] {
			first[s.Trace] = s.End
		}
		if s.End > last[s.Trace] {
			last[s.Trace] = s.End
		}
		n[s.Trace]++
	}
	var sum float64
	var traces int
	for t, c := range n {
		if c >= 2 {
			sum += float64(last[t] - first[t])
			traces++
		}
	}
	if traces == 0 {
		return 0
	}
	return sum / float64(traces)
}

// runTraced is the separate traced run: a reference window on the public
// topology (a fifth of the rounds), a window on the same topology rebuilt
// with recording wrappers (three fifths), and the probes. It yields every
// per-layer metric.
func runTraced(cfg config, w workload, corpusPath string, corpus *seq.Set) (*result, error) {
	m := make(map[string]float64)
	res := &result{Metrics: map[string]metric{}}

	// The first search of a cold stack, over two constructions.
	public := func() (*stack, error) { return buildPublic(w, corpusPath) }
	warm := newGenerator(w, cfg.seed, 0, corpus).warmup()
	var first []float64
	for i := 0; i < 2; i++ {
		st, _, d, err := setup(public, warm)
		if err != nil {
			return nil, err
		}
		if err := st.Close(); err != nil {
			return nil, err
		}
		first = append(first, d.Seconds()*1e3)
	}
	m["engine.first_search_ms"] = quantile(first, 0.5)

	ref, err := serve(cfg, w, public, max(1, cfg.rounds/5), corpus, res)
	if err != nil {
		return nil, err
	}
	rec := newRecorder(1 << 19)
	traced := func() (*stack, error) { return buildTraced(w, corpusPath, rec) }
	tr, err := serve(cfg, w, traced, max(1, cfg.rounds*3/5), corpus, res)
	if err != nil {
		return nil, err
	}
	dumpPath := filepath.Join(cfg.workDir, "spans-"+w.name+".json")
	if err := rec.dump(dumpPath); err != nil {
		return nil, err
	}

	// Only spans of the window count; set-up and priming went through the
	// wrappers too.
	from := int64(tr.started.Sub(rec.epoch))
	var spans []span
	for _, s := range rec.spans() {
		if s.Start >= from {
			spans = append(spans, s)
		}
	}
	lt := selfTimes(spans)
	selfPer := func(layer string, unit float64) float64 {
		t := lt[layer]
		if t == nil {
			return 0
		}
		return float64(t.self) / float64(t.spans) / unit
	}
	m["gateway.self_ms"] = selfPer("client", 1e6)
	m["shard.self_ms"] = selfPer("shard", 1e6)
	m["shard.straggler_ms"] = stragglerNS(spans, "replica") / 1e6
	m["replica.self_us"] = selfPer("replica", 1e3)
	m["remote.self_ms"] = selfPer("remote", 1e6)
	m["engine.self_ms"] = selfPer("engine", 1e6)
	if t := lt["worker"]; t != nil {
		m["master.pool_busy_ratio"] = float64(t.total) / (2 * float64(tr.bounds[len(tr.bounds)-1]))
	}

	d := tr.delta
	if d.Waves > 0 {
		m["engine.queries_per_wave"] = float64(d.Queries) / float64(d.Waves)
		m["engine.pipelined_ratio"] = float64(d.PipelinedWaves) / float64(d.Waves)
	}
	m["engine.waves"] = float64(d.Waves)
	m["engine.overlap_ms"] = float64(d.OverlapNanos) / 1e6
	if lookups := d.CacheHits + d.CacheMisses; lookups > 0 {
		m["resultcache.hit_ratio"] = float64(d.CacheHits) / float64(lookups)
	}
	m["replica.hedged"] = float64(d.HedgedSearches)
	m["replica.failed_over"] = float64(d.FailedOver)
	m["gateway.shed"] = float64(tr.shed + ref.shed)

	if err := probes(m, corpusPath, corpus, time.Duration(cfg.rounds)*cfg.roundDur/120); err != nil {
		return nil, err
	}
	refGCUPS := bestRounds(ref.rounds.gcups, true)
	m["stack.efficiency"] = refGCUPS / (2 * m["swvector.interseq_gcups"])
	m["trace.overhead_ratio"] = bestRounds(tr.rounds.gcups, true) / refGCUPS
	m["trace.spans_dropped"] = float64(rec.dropped.Load())
	p90, n := tr.pooledLatency(0.9)
	m["bench.p90_ms"], m["bench.requests"] = p90, float64(n)
	m["bench.round_cv"] = cv(tr.rounds.gcups)

	res.Correct = res.Failed == 0 && res.Attempted > 0 && rec.dropped.Load() == 0
	fmt.Fprintf(cfg.out, "span dump: %s (%d spans, %d dropped)\n", dumpPath, len(rec.spans()), rec.dropped.Load())
	for _, pm := range perLayerMetrics {
		res.Metrics[pm.name] = metric{m[pm.name], pm.unit}
		fmt.Fprintf(cfg.out, "%-30s %14.6g %s\n", pm.name, m[pm.name], pm.unit)
	}
	return res, nil
}

// statsDelta is after − before for the counters the traced run reports.
func statsDelta(before, after engine.Stats) engine.Stats {
	return engine.Stats{
		Queries:        after.Queries - before.Queries,
		Waves:          after.Waves - before.Waves,
		PipelinedWaves: after.PipelinedWaves - before.PipelinedWaves,
		OverlapNanos:   after.OverlapNanos - before.OverlapNanos,
		CacheHits:      after.CacheHits - before.CacheHits,
		CacheMisses:    after.CacheMisses - before.CacheMisses,
		HedgedSearches: after.HedgedSearches - before.HedgedSearches,
		FailedOver:     after.FailedOver - before.FailedOver,
	}
}

// perLayerMetrics names every metric of the traced run, in report order;
// BENCHMARK.json lists the same names (TestContract holds them together).
var perLayerMetrics = []struct{ name, unit, better string }{
	{"swvector.interseq_gcups", "Gcell/s", "higher"},
	{"swvector.interseq_gcups_2t", "Gcell/s", "higher"},
	{"swvector.scaling_2t", "ratio", "higher"},
	{"sw.scalar_gcups", "Gcell/s", "higher"},
	{"swvector.striped_gcups", "Gcell/s", "higher"},
	{"swpar.fine_gcups", "Gcell/s", "higher"},
	{"scoring.profile_us", "us", "lower"},
	{"sched.plan_us", "us", "lower"},
	{"sched.makespan_over_lb", "ratio", "lower"},
	{"sched.batch_makespan_over_lb", "ratio", "lower"},
	{"master.pool_busy_ratio", "ratio", "higher"},
	{"master.merge_us", "us", "lower"},
	{"engine.self_ms", "ms", "lower"},
	{"engine.queries_per_wave", "count", "higher"},
	{"engine.waves", "count", "higher"},
	{"engine.pipelined_ratio", "ratio", "higher"},
	{"engine.overlap_ms", "ms", "higher"},
	{"engine.first_search_ms", "ms", "lower"},
	{"engine.new_ms", "ms", "lower"},
	{"resultcache.hit_ratio", "ratio", "higher"},
	{"resultcache.key_us", "us", "lower"},
	{"resultcache.hit_us", "us", "lower"},
	{"resultcache.put_us", "us", "lower"},
	{"shard.self_ms", "ms", "lower"},
	{"shard.straggler_ms", "ms", "lower"},
	{"replica.self_us", "us", "lower"},
	{"replica.hedged", "count", "lower"},
	{"replica.failed_over", "count", "lower"},
	{"remote.self_ms", "ms", "lower"},
	{"wire.marshal_us", "us", "lower"},
	{"wire.unmarshal_us", "us", "lower"},
	{"wire.bytes_per_search", "B", "lower"},
	{"gateway.self_ms", "ms", "lower"},
	{"gateway.stub_rtt_us", "us", "lower"},
	{"gateway.shed", "count", "lower"},
	{"seqdb.open_us", "us", "lower"},
	{"seq.checksum_ms", "ms", "lower"},
	{"stack.efficiency", "ratio", "higher"},
	{"bench.p90_ms", "ms", "lower"},
	{"bench.round_cv", "ratio", "lower"},
	{"bench.requests", "count", "higher"},
	{"trace.overhead_ratio", "ratio", "higher"},
	{"trace.spans_dropped", "count", "lower"},
}
