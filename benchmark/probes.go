package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"swdual/internal/alphabet"
	"swdual/internal/engine"
	"swdual/internal/gateway"
	"swdual/internal/master"
	"swdual/internal/resultcache"
	"swdual/internal/sched"
	"swdual/internal/scoring"
	"swdual/internal/seq"
	"swdual/internal/seqdb"
	"swdual/internal/sw"
	"swdual/internal/swpar"
	"swdual/internal/swvector"
	"swdual/internal/synth"
	"swdual/internal/wire"
)

// A probe times direct calls into one layer's public functions on the
// benchmark's corpus. Each probe takes probeReps timings of at least
// minDur each and reports the median, so a traced run can afford all of
// them.
const probeReps = 3

// timePer runs f in batches until minDur has passed and returns seconds
// per call, median of probeReps batches.
func timePer(minDur time.Duration, f func()) float64 {
	per := make([]float64, 0, probeReps)
	for rep := 0; rep < probeReps; rep++ {
		calls := 0
		start := time.Now()
		for calls == 0 || time.Since(start) < minDur {
			f()
			calls++
		}
		per = append(per, time.Since(start).Seconds()/float64(calls))
	}
	return quantile(per, 0.5)
}

// probes runs every probe and stores the results into m by metric name.
func probes(m map[string]float64, corpusPath string, db *seq.Set, probeDur time.Duration) error {
	params := sw.DefaultParams()
	gen := newGenerator(workload{name: "probe", clients: 1}, 1, 0, db)
	q240 := alphabet.Protein.MustEncode(gen.warmup().residues[0])
	cells := float64(len(q240)) * float64(db.TotalResidues())

	// Kernels: one 240-residue query against the whole corpus, the call a
	// pool worker makes. Only InterSeq is in the benchmark's pools; the
	// others are the evidence for pruning them.
	kernel := func(e sw.Engine, goroutines int) float64 {
		sec := timePer(probeDur, func() {
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					e.Scores(q240, db)
				}()
			}
			wg.Wait()
		})
		return cells * float64(goroutines) / sec / 1e9
	}
	m["swvector.interseq_gcups"] = kernel(swvector.NewInterSeq(params), 1)
	m["swvector.interseq_gcups_2t"] = kernel(swvector.NewInterSeq(params), 2)
	m["swvector.scaling_2t"] = m["swvector.interseq_gcups_2t"] / m["swvector.interseq_gcups"]
	m["sw.scalar_gcups"] = kernel(sw.NewScalar(params), 1)
	m["swvector.striped_gcups"] = kernel(swvector.NewStriped(params), 1)
	m["swpar.fine_gcups"] = kernel(swpar.NewEngine(params, swpar.Config{}), 1)

	micro := probeDur / 8
	var err error
	m["scoring.profile_us"] = 1e6 * timePer(micro, func() {
		if _, e := scoring.NewQueryProfiles(params.Matrix, q240).Striped8(); e != nil {
			err = e
		}
	})
	if err != nil {
		return err
	}

	// Scheduler: the paper's instance (40 standard queries against UniProt
	// on 4 CPUs + 4 GPUs, advertised rates) and batch_scan's own (its 4
	// tasks on 2 CPUs). makespan ÷ lower bound is a deterministic count.
	plan := func(dbResidues int64, lens []int, spec master.PoolSpec) (sec, ratio float64, err error) {
		workers := master.BuildPoolWorkers(params, spec, 0)
		sec = timePer(micro, func() {
			in := master.BuildInstance(dbResidues, lens, nil, master.RatesOf(workers))
			_, s, e := master.Assign(master.PolicyDualApprox, in, workers)
			if e != nil {
				err = e
				return
			}
			ratio = s.Makespan / sched.LowerBound(in)
		})
		return sec, ratio, err
	}
	var uniprot int64
	for _, l := range synth.UniProt.GenerateLengths() {
		uniprot += int64(l)
	}
	sec, ratio, err := plan(uniprot, synth.StandardQueries().Lengths, master.PoolSpec{CPU: 4, GPU: 4})
	if err != nil {
		return err
	}
	m["sched.plan_us"], m["sched.makespan_over_lb"] = sec*1e6, ratio
	if _, ratio, err = plan(db.TotalResidues(), batchLens, master.PoolSpec{CPU: 2}); err != nil {
		return err
	}
	m["sched.batch_makespan_over_lb"] = ratio

	// Merge: two shards' top-10 lists into one.
	o := &oracle{db: db, params: params}
	hits, err := o.hits(gen.warmup().residues[0])
	if err != nil {
		return err
	}
	m["master.merge_us"] = 1e6 * timePer(micro, func() {
		master.MergeTopK([][]master.Hit{hits, hits}, []int{0, db.Len()}, topK)
	})

	// Result cache, with an entry shaped like a serve_repeat request.
	hot := seq.NewSet(alphabet.Protein)
	hotHits := make([][]master.Hit, 8)
	for i := range hotHits {
		if err := hot.Add(fmt.Sprint("q", i), "", []byte(gen.query(gen.rng, 40))); err != nil {
			return err
		}
		hotHits[i] = hits
	}
	cache := resultcache.New(resultcache.Config{MaxEntries: 256})
	key := resultcache.Key(db.Checksum(), topK, hot)
	cache.Put(key, hotHits)
	m["resultcache.key_us"] = 1e6 * timePer(micro, func() { resultcache.Key(db.Checksum(), topK, hot) })
	m["resultcache.hit_us"] = 1e6 * timePer(micro, func() { cache.Get(key) })
	m["resultcache.put_us"] = 1e6 * timePer(micro, func() { cache.Put(key, hotHits) })

	// Wire: the request and result frames of one cluster_scatter search.
	wreq := &wire.SearchRequest{ID: 1, Queries: []wire.Query{{ID: "probe#0", Residues: q240}}}
	wres := &wire.SearchResult{ID: 1, Results: []wire.Result{{Cells: uint64(cells)}}}
	for _, h := range hits {
		wres.Results[0].Hits = append(wres.Results[0].Hits,
			wire.ResultHit{SeqIndex: uint32(h.SeqIndex), Score: int32(h.Score), SeqID: h.SeqID})
	}
	reqType, reqBytes, err := wire.Marshal(wreq)
	if err != nil {
		return err
	}
	resType, resBytes, err := wire.Marshal(wres)
	if err != nil {
		return err
	}
	m["wire.bytes_per_search"] = float64(len(reqBytes) + len(resBytes))
	m["wire.marshal_us"] = 1e6 * timePer(micro, func() {
		wire.Marshal(wreq) //nolint:errcheck // succeeded above
		wire.Marshal(wres) //nolint:errcheck
	})
	m["wire.unmarshal_us"] = 1e6 * timePer(micro, func() {
		if _, e := wire.Unmarshal(reqType, reqBytes); e != nil {
			err = e
		}
		if _, e := wire.Unmarshal(resType, resBytes); e != nil {
			err = e
		}
	})
	if err != nil {
		return err
	}

	// Gateway alone: loopback HTTP round trips over a backend that
	// answers from memory.
	stubReq := gen.next()
	stubReq.payload = stubReq.body()
	gw, err := gateway.New(&stubBackend{db: db, hits: hits}, gateway.Config{})
	if err != nil {
		return err
	}
	st := &stack{}
	if err := st.serveGateway(gw.Serve, gw.Close, nil); err != nil {
		return err
	}
	c := newClient(st)
	m["gateway.stub_rtt_us"] = 1e6 * timePer(micro, func() {
		if _, e := c.do(context.Background(), stubReq); e != nil {
			err = e
		}
	})
	c.close()
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}

	// Set-up pieces.
	m["seqdb.open_us"] = 1e6 * timePer(micro, func() {
		mp, e := seqdb.Open(corpusPath)
		if e == nil {
			_, e = mp.Set()
			mp.Close()
		}
		if e != nil {
			err = e
		}
	})
	m["engine.new_ms"] = 1e3 * timePer(micro, func() {
		eng, e := engine.New(db, engine.Config{Pool: master.PoolSpec{CPU: 2}})
		if e != nil {
			err = e
			return
		}
		eng.Close()
	})
	scan := db.Slice(0, db.Len()) // a slice carries no cached checksum, so every call scans
	m["seq.checksum_ms"] = 1e3 * timePer(micro, func() { scan.Checksum() })
	return err
}

// stubBackend answers every search with the same hits at once.
type stubBackend struct {
	db   *seq.Set
	hits []master.Hit
}

func (b *stubBackend) Search(_ context.Context, queries *seq.Set, _ engine.SearchOptions) (*master.Report, error) {
	rep := &master.Report{Results: make([]master.QueryResult, queries.Len())}
	for i := range rep.Results {
		rep.Results[i] = master.QueryResult{QueryIndex: i, QueryID: queries.Seqs[i].ID, Hits: b.hits}
	}
	return rep, nil
}
func (b *stubBackend) Plan([]int) (*sched.Schedule, error) { return nil, nil }
func (b *stubBackend) Stats() engine.Stats                 { return engine.Stats{} }
func (b *stubBackend) Checksum() uint32                    { return b.db.Checksum() }
func (b *stubBackend) DBLengths() []int                    { return nil }
func (b *stubBackend) Alphabet() *alphabet.Alphabet        { return b.db.Alpha }
func (b *stubBackend) Close() error                        { return nil }
