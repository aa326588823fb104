package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"

	"swdual/internal/alphabet"
	"swdual/internal/master"
	"swdual/internal/seq"
	"swdual/internal/seqdb"
	"swdual/internal/sw"
	"swdual/internal/synth"
)

// corpusSpec is the one corpus every workload searches (≈108 k residues).
// It does not follow -seed: p50_ms is proportional to the corpus' residue
// count, which for 300 lognormal lengths varies by ±4 % (1 σ) from seed to
// seed, and the kernel's lane packing depends on the length mix; a corpus
// per seed would put both into the spread between runs of identical code.
// The seed varies the queries, which is what the program is handed.
var corpusSpec = synth.DBSpec{Name: "bench", Count: 300, MeanLen: 360, Sigma: 0.6, MinLen: 20, MaxLen: 4000, Seed: 1}

// topK is the hit cap every workload asks for (the program's default).
const topK = 10

// writeCorpus generates spec and writes it as dir/corpus.swdb.
func writeCorpus(dir string, spec synth.DBSpec) (string, error) {
	path := filepath.Join(dir, "corpus.swdb")
	if err := seqdb.Create(path, spec.Generate()); err != nil {
		return "", fmt.Errorf("write corpus: %w", err)
	}
	return path, nil
}

// request is one front-door operation: its queries as the ASCII the
// program is handed, and the cells a correct answer delivers.
type request struct {
	id       string
	ids      []string
	residues []string
	cells    int64
	// hot is the index of a serve_repeat request among its 8 primed ones,
	// -1 elsewhere.
	hot int
	// payload is the POST /v1/search body, rendered before the clock
	// starts (generating a request is the benchmark's cost).
	payload []byte
}

// body renders the request as a POST /v1/search JSON body.
func (r *request) body() []byte {
	type query struct {
		ID       string `json:"id"`
		Residues string `json:"residues"`
	}
	qs := make([]query, len(r.ids))
	for i := range r.ids {
		qs[i] = query{ID: r.ids[i], Residues: r.residues[i]}
	}
	b, err := json.Marshal(struct {
		Queries []query `json:"queries"`
	}{qs})
	if err != nil {
		panic(err) // strings only: cannot fail
	}
	return b
}

// traceID strips the per-query suffix from a query ID, giving the ID of
// the request that carried it.
func traceID(queryID string) string {
	if i := strings.IndexByte(queryID, '#'); i >= 0 {
		return queryID[:i]
	}
	return queryID
}

const aminoAcids = "ACDEFGHIKLMNPQRSTVWY"

// generator is one client's seeded request stream. Streams of different
// clients, workloads and seeds are independent, and a stream does not
// depend on how the clients interleave.
type generator struct {
	workload string
	http     bool // requests carry a rendered JSON payload
	client   int
	clients  int
	n        int
	rng      *rand.Rand
	corpus   *seq.Set
	hot      []*request // serve_repeat only
}

func newGenerator(w workload, seed int64, client int, corpus *seq.Set) *generator {
	workload := w.name
	var h int64
	for _, c := range workload {
		h = h*131 + int64(c)
	}
	g := &generator{workload: workload, http: w.http, client: client, clients: w.clients, corpus: corpus}
	if workload == "serve_repeat" {
		// Every client draws from the same 8 hot requests.
		hotRNG := rand.New(rand.NewSource(seed*1000003 + h))
		for i := 0; i < 8; i++ {
			r := &request{id: fmt.Sprintf("%s-hot%d", workload, i), hot: i}
			for q := 0; q < 8; q++ {
				g.addQuery(r, hotRNG, 40)
			}
			g.hot = append(g.hot, g.render(r))
		}
	}
	g.rng = rand.New(rand.NewSource(seed*1000003 + h + int64(client+1)*7919))
	return g
}

// query draws n residues: uniform amino acids with a mutated copy of a
// corpus segment planted in the middle, so every query has a real best
// hit (and that comparison overflows the kernel's 8-bit lanes, as a
// homolog does).
func (g *generator) query(rng *rand.Rand, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = aminoAcids[rng.Intn(len(aminoAcids))]
	}
	src := g.corpus.Seqs[rng.Intn(g.corpus.Len())].Residues
	seg := n * 2 / 5
	if seg > len(src) {
		seg = len(src)
	}
	from := rng.Intn(len(src) - seg + 1)
	at := (n - seg) / 2
	for i := 0; i < seg; i++ {
		if rng.Intn(10) == 0 {
			continue // keep the random residue: a point mutation
		}
		b[at+i] = g.corpus.Alpha.Letter(src[from+i])
	}
	return string(b)
}

func (g *generator) addQuery(r *request, rng *rand.Rand, n int) {
	r.ids = append(r.ids, fmt.Sprintf("%s#%d", r.id, len(r.ids)))
	r.residues = append(r.residues, g.query(rng, n))
	r.cells += int64(n) * g.corpus.TotalResidues()
}

// warmup is the fixed request every set-up ends with.
func (g *generator) warmup() *request {
	r := &request{id: g.workload + "-warmup", hot: -1}
	g.addQuery(r, rand.New(rand.NewSource(42)), 240)
	return g.render(r)
}

// render attaches the JSON payload an HTTP front door is sent.
func (g *generator) render(r *request) *request {
	if g.http {
		r.payload = r.body()
	}
	return r
}

// next draws the client's next request.
func (g *generator) next() *request {
	id := fmt.Sprintf("%s-%d", g.workload, g.n*g.clients+g.client)
	g.n++
	if g.hot != nil {
		// The residues repeat, the IDs do not: the cache key leaves IDs
		// out, and a unique ID keeps every request its own trace.
		r := *g.hot[g.rng.Intn(len(g.hot))]
		r.id, r.ids = id, make([]string, len(r.ids))
		for i := range r.ids {
			r.ids[i] = fmt.Sprintf("%s#%d", id, i)
		}
		return g.render(&r)
	}
	r := &request{id: id, hot: -1}
	switch g.workload {
	case "batch_scan":
		for _, n := range batchLens {
			g.addQuery(r, g.rng, n)
		}
	default:
		// One fresh query. The length band is narrow on purpose: latency
		// is proportional to length, so the spread of the band is the
		// spread of p50_ms between seeds.
		g.addQuery(r, g.rng, 256+g.rng.Intn(29))
	}
	return g.render(r)
}

// batchLens are the four unequal tasks of one batch_scan operation.
var batchLens = []int{480, 240, 160, 120}

// oracle answers queries with the reference scalar kernel.
type oracle struct {
	db     *seq.Set
	params sw.Params
}

// hits computes the exact top hits of one ASCII query with sw.Score over
// the whole corpus, on two goroutines.
func (o *oracle) hits(residues string) ([]master.Hit, error) {
	q, err := alphabet.Protein.Encode([]byte(residues))
	if err != nil {
		return nil, err
	}
	scores := make([]int, o.db.Len())
	var wg sync.WaitGroup
	for part := 0; part < 2; part++ {
		wg.Add(1)
		go func(part int) {
			defer wg.Done()
			for i := part; i < len(scores); i += 2 {
				scores[i] = sw.Score(o.params, q, o.db.Seqs[i].Residues)
			}
		}(part)
	}
	wg.Wait()
	return master.TopHits(o.db, scores, topK), nil
}

// check compares one query's answer with the oracle, hit for hit.
func (o *oracle) check(residues string, got []master.Hit) error {
	want, err := o.hits(residues)
	if err != nil {
		return err
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d hits, oracle has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("hit %d is %+v, oracle has %+v", i, got[i], want[i])
		}
	}
	return nil
}

// checkRequest oracle-checks every query of one answered request.
func (o *oracle) checkRequest(r *request, answer [][]master.Hit) error {
	if err := checkShape(r, answer); err != nil {
		return err
	}
	for i := range r.residues {
		if err := o.check(r.residues[i], answer[i]); err != nil {
			return fmt.Errorf("%s: %w", r.ids[i], err)
		}
	}
	return nil
}

// checkShape is the structural check every response in the window gets:
// one result per query, at most topK hits, scores non-increasing.
func checkShape(r *request, answer [][]master.Hit) error {
	if len(answer) != len(r.ids) {
		return fmt.Errorf("%s: %d results for %d queries", r.id, len(answer), len(r.ids))
	}
	for qi, hits := range answer {
		if len(hits) == 0 || len(hits) > topK {
			return fmt.Errorf("%s: %d hits", r.ids[qi], len(hits))
		}
		for i := 1; i < len(hits); i++ {
			if hits[i].Score > hits[i-1].Score {
				return fmt.Errorf("%s: hit %d outscores hit %d", r.ids[qi], i, i-1)
			}
		}
	}
	return nil
}

// digest folds an answer into one FNV-1a value; serve_repeat compares
// every response in the window with the digest of its primed,
// oracle-checked answer.
func digest(answer [][]master.Hit) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h = (h ^ (v & 0xff)) * 1099511628211
			v >>= 8
		}
	}
	for _, hits := range answer {
		mix(uint64(len(hits)))
		for _, x := range hits {
			mix(uint64(x.SeqIndex))
			mix(uint64(x.Score))
			for i := 0; i < len(x.SeqID); i++ {
				h = (h ^ uint64(x.SeqID[i])) * 1099511628211
			}
		}
	}
	return h
}
