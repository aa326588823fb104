package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"swdual/internal/master"
	"swdual/internal/sw"
	"swdual/internal/synth"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestQuantile(t *testing.T) {
	xs := []float64{7, 1, 5, 3} // sorted: 1 3 5 7
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.25, 2.5}, {0.5, 4}, {0.75, 5.5}, {1, 7}} {
		if got := quantile(xs, c.q); !near(got, c.want) {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
	if got := quantile([]float64{4}, 0.75); got != 4 {
		t.Errorf("quantile of one sample = %v, want 4", got)
	}
}

func TestBestRounds(t *testing.T) {
	// Most rounds slowed by a neighbour: the reported value is the mean
	// of the three best, high for a rate and low for a cost.
	rate := []float64{0.31, 0.39, 0.25, 0.41, 0.40, 0.27, 0.33}
	if got := bestRounds(rate, true); !near(got, 0.40) {
		t.Errorf("best rounds of rates = %v, want 0.40", got)
	}
	cost := []float64{330, 272, 400, 268, 270, 380, 300}
	if got := bestRounds(cost, false); !near(got, 270) {
		t.Errorf("best rounds of costs = %v, want 270", got)
	}
	if got := bestRounds([]float64{2, 4}, true); !near(got, 3) {
		t.Errorf("best rounds of two = %v, want their mean", got)
	}
	if got := bestRounds(nil, true); got != 0 {
		t.Errorf("best rounds of nothing = %v, want 0", got)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{Layer: "shard", Trace: "a", Parent: "client/0", Start: 0, End: 100},
		// Two overlapping children and one that outlives its parent: they
		// cover [10,60) and [80,100) of it.
		{Layer: "replica", Part: 0, Trace: "a", Parent: "shard/0", Start: 10, End: 40},
		{Layer: "replica", Part: 1, Trace: "a", Parent: "shard/0", Start: 30, End: 60},
		{Layer: "replica", Part: 1, Trace: "a", Parent: "shard/0", Start: 80, End: 120},
		// Another request's child, and a grandchild: neither is a child.
		{Layer: "replica", Part: 0, Trace: "b", Parent: "shard/0", Start: 0, End: 100},
		{Layer: "remote", Part: 0, Trace: "a", Parent: "replica/0", Start: 12, End: 38},
	}
	lt := selfTimes(spans)
	if got := lt["shard"]; got.spans != 1 || got.total != 100 || got.self != 30 {
		t.Errorf("shard: %+v, want 1 span, total 100, self 30", *got)
	}
	// replica/0 of trace a has the remote span as its child (26 of 30);
	// the other three replica spans have none.
	if got := lt["replica"]; got.spans != 4 || got.self != 4+30+40+100 {
		t.Errorf("replica: %+v, want 4 spans, self 174", *got)
	}
	if got := lt["remote"]; got.self != 26 {
		t.Errorf("remote: %+v, want self 26", *got)
	}
	// Trace a's replica spans end at 40, 60 and 120; trace b has one.
	if got := stragglerNS(spans, "replica"); got != 80 {
		t.Errorf("straggler = %v, want 80", got)
	}
}

func TestAnalyzeCreditsWorkToTheRoundItWasDoneIn(t *testing.T) {
	sec := time.Second
	w := &window{
		bounds: []time.Duration{0, 2 * sec, 4 * sec},
		cpu:    []time.Duration{0, 3 * sec, 5 * sec},
		samples: [][]sample{{
			newSample(0, 1*sec, 1e9, true),
			newSample(1*sec, 3*sec, 2e9, true), // half in each round
		}, {
			newSample(3*sec, 5*sec, 4e9, true), // half after the window
			newSample(0, 4*sec, 8e9, false),    // failed: delivers nothing
		}},
	}
	m := w.analyze()
	if len(m.gcups) != 2 || !near(m.gcups[0], 1.0) || !near(m.gcups[1], 1.5) {
		t.Errorf("gcups per round = %v, want [1 1.5]", m.gcups)
	}
	if !near(m.cpuPerGcell[0], 1.5) || !near(m.cpuPerGcell[1], 2.0/3) {
		t.Errorf("CPU s per Gcell per round = %v, want [1.5 0.667]", m.cpuPerGcell)
	}
	// Latencies count where the request finished: 1 s in round 0; 2 s and
	// 2 s (finished late, so the last round) in round 1.
	if !near(m.p50ms[0], 1000) || !near(m.p50ms[1], 2000) {
		t.Errorf("p50 per round = %v, want [1000 2000]", m.p50ms)
	}
}

// smallCorpus keeps the tests fast; the lengths are drawn like the real
// corpus'.
var smallCorpus = synth.DBSpec{Name: "small", Count: 30, MeanLen: 200, Sigma: 0.6, MinLen: 20, MaxLen: 1000, Seed: 1}

func TestGeneratorIsDeterministicAndNeverRepeats(t *testing.T) {
	corpus := smallCorpus.Generate()
	stream := func(w workload, seed int64, client, n int) []string {
		g := newGenerator(w, seed, client, corpus)
		out := make([]string, n)
		for i := range out {
			out[i] = string(g.next().body())
		}
		return out
	}
	for _, w := range workloads {
		a, b, other := stream(w, 7, 0, 50), stream(w, 7, 0, 50), stream(w, 8, 0, 50)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: request %d differs between two streams of seed 7", w.name, i)
			}
		}
		if strings.Join(a, "") == strings.Join(other, "") {
			t.Errorf("%s: seeds 7 and 8 give the same stream", w.name)
		}
	}
	for _, name := range []string{"serve_http", "cluster_scatter", "batch_scan"} {
		w, _ := workloadByName(name)
		ids, residues := map[string]bool{}, map[string]bool{}
		for client := 0; client < w.clients; client++ {
			g := newGenerator(w, 7, client, corpus)
			for i := 0; i < 300; i++ {
				r := g.next()
				if ids[r.id] {
					t.Fatalf("%s: request ID %s used twice", name, r.id)
				}
				ids[r.id] = true
				for _, q := range r.residues {
					if residues[q] {
						t.Fatalf("%s: a query repeats, so the cache would answer it", name)
					}
					residues[q] = true
				}
			}
		}
	}
	// serve_repeat is the opposite: unique IDs over 8 repeating bodies.
	w, _ := workloadByName("serve_repeat")
	g := newGenerator(w, 7, 1, corpus)
	ids, bodies := map[string]bool{}, map[string]bool{}
	for i := 0; i < 300; i++ {
		r := g.next()
		ids[r.id] = true
		bodies[strings.Join(r.residues, "|")] = true
		if r.hot < 0 || r.hot > 7 || len(r.residues) != 8 {
			t.Fatalf("serve_repeat request %s: hot %d, %d queries", r.id, r.hot, len(r.residues))
		}
	}
	if len(ids) != 300 || len(bodies) != 8 {
		t.Errorf("serve_repeat: %d IDs over %d bodies, want 300 over 8", len(ids), len(bodies))
	}
}

func TestOracleRejectsAWrongAnswer(t *testing.T) {
	corpus := smallCorpus.Generate()
	o := &oracle{db: corpus, params: sw.DefaultParams()}
	w, _ := workloadByName("serve_http")
	r := newGenerator(w, 1, 0, corpus).next()
	hits, err := o.hits(r.residues[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := o.checkRequest(r, [][]master.Hit{hits}); err != nil {
		t.Fatalf("the oracle's own answer: %v", err)
	}
	// The query carries a planted corpus segment, so the best hit stands
	// clear of the rest.
	if len(hits) < 2 || hits[0].Score < 2*hits[1].Score {
		t.Errorf("best hit %+v does not stand out from %+v", hits[0], hits[1:])
	}
	wrong := append([]master.Hit(nil), hits...)
	wrong[len(wrong)-1].Score--
	if err := o.checkRequest(r, [][]master.Hit{wrong}); err == nil {
		t.Error("an answer with one score off by one passed the oracle check")
	}
	if digest([][]master.Hit{hits}) == digest([][]master.Hit{wrong}) {
		t.Error("digest does not see a changed score")
	}
}

// TestSmoke runs every workload end to end and one of them traced, on a
// small corpus with one short round: construction, warm-up, priming,
// window, every answer check and every metric.
func TestSmoke(t *testing.T) {
	cfg := config{seed: 3, rounds: 1, roundDur: 200 * time.Millisecond, setups: 2,
		workDir: t.TempDir(), corpus: smallCorpus, out: io.Discard}
	for _, w := range workloads {
		res, err := measure(cfg, w)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 2 {
			t.Errorf("%s: correct %v, %d of %d failed", w.name, res.Correct, res.Failed, res.Attempted)
		}
		for _, name := range []string{"setup_s", "gcups", "p50_ms", "cpu_s_per_gcell", "rss_mb"} {
			if m, ok := res.Metrics[name]; !ok || !(m.Value > 0) || m.Unit == "" {
				t.Errorf("%s: metric %s = %+v", w.name, name, m)
			}
		}
	}

	cfg.trace = true
	w, _ := workloadByName("cluster_scatter")
	var report bytes.Buffer
	cfg.out = &report
	res, err := measure(cfg, w)
	if err != nil {
		t.Fatalf("traced %s: %v", w.name, err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Errorf("traced %s: correct %v, %d failed\n%s", w.name, res.Correct, res.Failed, report.String())
	}
	if len(res.Metrics) != len(perLayerMetrics) {
		t.Errorf("traced run has %d metrics, want %d", len(res.Metrics), len(perLayerMetrics))
	}
	// Every layer of the cluster topology left spans with self time, and
	// nothing hedged, failed over or was shed.
	for _, name := range []string{"gateway.self_ms", "shard.self_ms", "replica.self_us", "remote.self_ms",
		"engine.self_ms", "master.pool_busy_ratio", "swvector.interseq_gcups", "trace.overhead_ratio"} {
		if !(res.Metrics[name].Value > 0) {
			t.Errorf("traced %s: %s = %v, want > 0", w.name, name, res.Metrics[name].Value)
		}
	}
	for _, name := range []string{"replica.hedged", "replica.failed_over", "gateway.shed", "trace.spans_dropped"} {
		if res.Metrics[name].Value != 0 {
			t.Errorf("traced %s: %s = %v, want 0", w.name, name, res.Metrics[name].Value)
		}
	}
	raw, err := os.ReadFile(cfg.workDir + "/spans-cluster_scatter.json")
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(raw, &spans); err != nil || len(spans) == 0 {
		t.Errorf("span dump: %d spans, %v", len(spans), err)
	}
}

// TestContract holds BENCHMARK.json and the program together: the gated
// workloads with the same reasons, the same metric names, units and
// directions.
func TestContract(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Why, Unit, Better string
		Bound                   float64
	}
	var c struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []entry
		EndToEnd   []entry `json:"end_to_end"`
		PerLayer   []entry `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		t.Fatal(err)
	}
	if len(c.Paths) != 1 || c.Paths[0] != "benchmark" || c.RunSeconds < 1 || c.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", c.Paths, c.RunSeconds)
	}
	var gated []workload
	for _, w := range workloads {
		if w.ungated == "" {
			gated = append(gated, w)
		}
	}
	if len(c.Workloads) != len(gated) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d gated ones in the program", len(c.Workloads), len(gated))
	}
	for i, w := range gated {
		if c.Workloads[i].Name != w.name || c.Workloads[i].Why != w.why || len(w.why) > 200 {
			t.Errorf("workload %d: %+v, program has %s: %s", i, c.Workloads[i], w.name, w.why)
		}
	}
	if len(c.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(c.PerLayer), len(perLayerMetrics))
	}
	for i, m := range perLayerMetrics {
		if got := c.PerLayer[i]; got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("per-layer metric %d: %+v, program has %+v", i, got, m)
		}
	}
	want := map[string]entry{
		"setup_s":         {Unit: "s", Better: "lower"},
		"gcups":           {Unit: "Gcell/s", Better: "higher"},
		"p50_ms":          {Unit: "ms", Better: "lower"},
		"cpu_s_per_gcell": {Unit: "s/Gcell", Better: "lower"},
		"rss_mb":          {Unit: "MiB", Better: "lower"},
	}
	if len(c.EndToEnd) != len(want) {
		t.Errorf("%d end-to-end metrics, want %d", len(c.EndToEnd), len(want))
	}
	for _, m := range c.EndToEnd {
		w, ok := want[m.Name]
		if !ok || m.Unit != w.Unit || m.Better != w.Better || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v", m)
		}
	}
}
