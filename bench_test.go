package swdual_test

// Benchmarks regenerating every table and figure of the paper's
// evaluation (§V), plus search-path and micro-benchmarks of what
// benchmark/ does not gate or probe. Run with:
//
//	go test -bench=. -benchmem
//
// The Table/Figure benchmarks report the modeled paper-scale seconds as
// custom metrics (model_s) so regenerated values appear directly in the
// benchmark output; `go run ./cmd/benchtables` prints the full tables.

import (
	"context"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"

	"swdual"
	"swdual/internal/alphabet"
	"swdual/internal/bench"
	"swdual/internal/platform"
	"swdual/internal/sched"
	"swdual/internal/sw"
	"swdual/internal/synth"
)

// BenchmarkSearchOneShot measures the seed's per-call path: every search
// rebuilds workers, profiles and scheduler state from scratch.
func BenchmarkSearchOneShot(b *testing.B) {
	db, queries := benchSearchData(b)
	opt := swdual.Options{Pool: "cpu=4", TopK: 5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := swdual.Search(db, queries, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchPersistent measures the same search through one
// long-lived Searcher: preparation and the worker pool are paid once,
// outside the loop.
func BenchmarkSearchPersistent(b *testing.B) {
	db, queries := benchSearchData(b)
	s, err := swdual.NewSearcher(db, swdual.Options{Pool: "cpu=4", TopK: 5})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Search(ctx, queries, swdual.SearchOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st := s.Stats(); st.Prepared != 1 {
		b.Fatalf("database prepared %d times across %d searches", st.Prepared, b.N)
	}
}

// BenchmarkMappedVsHeapMemory prices where the corpus lives during
// sustained searching: the same corpus searched from a heap copy
// (LoadFASTA) and from a read-only .swdb mapping (OpenDatabase). ns/op shows
// steady-state search parity — the mapping costs nothing per search —
// while the custom metrics show the memory story: heap-inuse-bytes
// drops by roughly the corpus size under mmap (residues live in the
// page cache, invisible to the GC) and db-mapped-bytes accounts for
// where it went. gc-cycles counts completed GCs during the timed loop.
func BenchmarkMappedVsHeapMemory(b *testing.B) {
	gen, err := swdual.GenerateDatabase("UniProt", 100)
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	swdbPath, fastaPath := filepath.Join(dir, "bench.swdb"), filepath.Join(dir, "bench.fasta")
	if err := gen.SaveBinary(swdbPath); err != nil {
		b.Fatal(err)
	}
	if err := gen.SaveFASTA(fastaPath); err != nil {
		b.Fatal(err)
	}
	gen = nil
	queries, err := swdual.GenerateQueries("standard", 400)
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, open func(string) (*swdual.Database, error), path string) {
		db, err := open(path)
		if err != nil {
			b.Fatal(err)
		}
		s, err := swdual.NewSearcher(db, swdual.Options{Pool: "cpu=3", TopK: 5})
		if err != nil {
			b.Fatal(err)
		}
		ctx := context.Background()
		runtime.GC()
		var before runtime.MemStats
		runtime.ReadMemStats(&before)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Search(ctx, queries, swdual.SearchOptions{}); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		runtime.GC()
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		b.ReportMetric(float64(after.HeapInuse), "heap-inuse-bytes")
		b.ReportMetric(float64(after.NumGC-before.NumGC), "gc-cycles")
		b.ReportMetric(float64(db.MappedBytes()), "db-mapped-bytes")
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
		if err := db.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("heap", func(b *testing.B) { run(b, swdual.LoadFASTA, fastaPath) })
	b.Run("mmap", func(b *testing.B) { run(b, swdual.OpenDatabase, swdbPath) })
}

// BenchmarkCachedSearch prices the result cache against the persistent
// uncached path on the same repeated search: cache=off re-runs the full
// wave every iteration; cache=on pays one cold wave during warm-up and
// serves every timed iteration from the cache — the delta is the entire
// alignment cost, leaving only key construction and the defensive copy.
// Hits are byte-identical either way (the equivalence suite proves it).
func BenchmarkCachedSearch(b *testing.B) {
	db, queries := benchSearchData(b)
	for _, mode := range []string{"off", "on"} {
		b.Run("cache="+mode, func(b *testing.B) {
			s, err := swdual.NewSearcher(db, swdual.Options{
				Pool: "cpu=4", TopK: 5, Cache: mode == "on",
			})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			ctx := context.Background()
			// Warm up: with the cache on, the cold miss happens here and
			// every timed iteration is a hit.
			if _, err := s.Search(ctx, queries, swdual.SearchOptions{}); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Search(ctx, queries, swdual.SearchOptions{}); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			st := s.Stats()
			if mode == "on" && st.CacheHits != uint64(b.N) {
				b.Fatalf("cache hits %d across %d timed searches", st.CacheHits, b.N)
			}
			if mode == "off" && st.CacheHits != 0 {
				b.Fatalf("uncached searcher reported %d cache hits", st.CacheHits)
			}
		})
	}
}

// BenchmarkSearchPersistentConcurrent measures the dispatcher under the
// serving workload: many concurrent clients, each submitting small
// requests against one Searcher, so the engine runs a steady stream of
// small overlapping waves and per-wave overhead (the any-idle gate,
// planning on the idle workers, the per-kind feeds) is what throughput
// leaks through.
func BenchmarkSearchPersistentConcurrent(b *testing.B) {
	db, _ := benchSearchData(b)
	full, err := swdual.GenerateQueries("standard", 400)
	if err != nil {
		b.Fatal(err)
	}
	// One single-query set per standard query: each client request is
	// small, so waves stay frequent and the dispatcher is actually hot.
	sets := make([]*swdual.Database, full.Len())
	for i := range sets {
		id, res := full.Sequence(i)
		if sets[i], err = swdual.FromSequences([]string{id}, []string{res}); err != nil {
			b.Fatal(err)
		}
	}
	s, err := swdual.NewSearcher(db, swdual.Options{Pool: "cpu=4", TopK: 5})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	var client atomic.Int64
	b.SetParallelism(4) // >= 4 concurrent clients regardless of GOMAXPROCS
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		n := int(client.Add(1))
		for pb.Next() {
			q := sets[n%len(sets)]
			n++
			if _, err := s.Search(ctx, q, swdual.SearchOptions{}); err != nil {
				b.Error(err) // Fatal must not run off the benchmark goroutine
				return
			}
		}
	})
}

// BenchmarkSearchDefaultPool times a search through the public API on the
// default pool (Options{}: one CPU worker per GOMAXPROCS): the 40
// standard queries at 1/10 scale against UniProt at 1/2000.
func BenchmarkSearchDefaultPool(b *testing.B) {
	db, err := swdual.GenerateDatabase("UniProt", 2000)
	if err != nil {
		b.Fatal(err)
	}
	queries, err := swdual.GenerateQueries("standard", 10)
	if err != nil {
		b.Fatal(err)
	}
	s, err := swdual.NewSearcher(db, swdual.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	var cells int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := s.Search(ctx, queries, swdual.SearchOptions{})
		if err != nil {
			b.Fatal(err)
		}
		cells += rep.Cells
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(cells)/secs/1e9, "GCUPS")
	}
}

func benchSearchData(b *testing.B) (db, queries *swdual.Database) {
	b.Helper()
	db, err := swdual.GenerateDatabase("UniProt", 20000)
	if err != nil {
		b.Fatal(err)
	}
	queries, err = swdual.GenerateQueries("standard", 400)
	if err != nil {
		b.Fatal(err)
	}
	return db, queries
}

// BenchmarkTable1Applications regenerates Table I (application registry).
func BenchmarkTable1Applications(b *testing.B) {
	r := bench.NewRunner(bench.Config{})
	for i := 0; i < b.N; i++ {
		t := r.Table1()
		if len(t.Rows) != 5 {
			b.Fatalf("Table I has %d rows, want 5", len(t.Rows))
		}
	}
}

// BenchmarkTable2Figure7 regenerates Table II / Figure 7: execution time
// vs workers on UniProt for the five applications.
func BenchmarkTable2Figure7(b *testing.B) {
	r := bench.NewRunner(bench.Config{})
	var t *bench.Table
	for i := 0; i < b.N; i++ {
		t = r.Table2Figure7()
	}
	reportSeries(b, t)
}

// BenchmarkTable3Databases regenerates Table III (database inventory).
func BenchmarkTable3Databases(b *testing.B) {
	r := bench.NewRunner(bench.Config{})
	for i := 0; i < b.N; i++ {
		t := r.Table3()
		if len(t.Rows) != 5 {
			b.Fatalf("Table III has %d rows, want 5", len(t.Rows))
		}
	}
}

// BenchmarkTable4Figure8 regenerates Table IV / Figure 8: SWDUAL time and
// GCUPS on the five databases.
func BenchmarkTable4Figure8(b *testing.B) {
	r := bench.NewRunner(bench.Config{})
	var t *bench.Table
	for i := 0; i < b.N; i++ {
		t = r.Table4Figure8()
	}
	reportSeries(b, t)
}

// BenchmarkTable5Figure9 regenerates Table V / Figure 9: homogeneous vs
// heterogeneous query sets.
func BenchmarkTable5Figure9(b *testing.B) {
	r := bench.NewRunner(bench.Config{})
	var t *bench.Table
	for i := 0; i < b.N; i++ {
		t = r.Table5Figure9()
	}
	reportSeries(b, t)
}

// BenchmarkAblationIdleTime regenerates the idle-time ablation backing
// the paper's "almost no idle time" claim.
func BenchmarkAblationIdleTime(b *testing.B) {
	r := bench.NewRunner(bench.Config{})
	for i := 0; i < b.N; i++ {
		if t := r.AblationIdle(); len(t.Rows) == 0 {
			b.Fatal("empty ablation")
		}
	}
}

// BenchmarkAblationSchedulers regenerates the scheduler-quality ablation.
func BenchmarkAblationSchedulers(b *testing.B) {
	r := bench.NewRunner(bench.Config{})
	for i := 0; i < b.N; i++ {
		if t := r.AblationSchedulers(); len(t.Rows) == 0 {
			b.Fatal("empty ablation")
		}
	}
}

// reportSeries exposes the last point of each figure series as a custom
// metric so regenerated numbers are visible in bench output.
func reportSeries(b *testing.B, t *bench.Table) {
	b.Helper()
	for _, s := range t.Series {
		if n := len(s.Y); n > 0 {
			b.ReportMetric(s.Y[n-1], "model_s/"+sanitize(s.Name))
		}
	}
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			out = append(out, r)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}

// Kernel micro-benchmarks the gate has no probe for. (The CPU kernels'
// Gcell/s are benchmark/'s sw.scalar_gcups, swvector.*_gcups and
// swpar.fine_gcups probes; the networked scatter is its cluster_scatter
// workload.)

func benchEngine(b *testing.B, engine sw.Engine, queryLen, dbSeqs, dbLen int) {
	b.Helper()
	db := synth.RandomSet(alphabet.Protein, dbSeqs, dbLen, dbLen, 1)
	query := synth.RandomSet(alphabet.Protein, 1, queryLen, queryLen, 2).Seqs[0].Residues
	cells := sw.SetCells(len(query), db)
	b.SetBytes(cells) // bytes/s == cells/s
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engine.Scores(query, db)
	}
	b.StopTimer()
	secs := b.Elapsed().Seconds() / float64(b.N)
	if secs > 0 {
		b.ReportMetric(float64(cells)/secs/1e9, "GCUPS")
	}
}

// BenchmarkAlignFullMatrix measures quadratic-space traceback alignment
// (sw.Align, the traceback behind AlignPair).
func BenchmarkAlignFullMatrix(b *testing.B) {
	db := synth.RandomSet(alphabet.Protein, 2, 1500, 1500, 3)
	q, d := db.Seqs[0].Residues, db.Seqs[1].Residues
	p := sw.DefaultParams()
	b.SetBytes(int64(len(q)) * int64(len(d)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw.Align(p, q, d)
	}
}

// BenchmarkDualApprox40Tasks measures the scheduler on the paper's task
// shape (40 tasks, 4+4 PEs).
func BenchmarkDualApprox40Tasks(b *testing.B) {
	p := platform.New(4, 4)
	model := p.ModelDB("uniprot", synth.UniProt.Scaled(100).GenerateLengths())
	in := p.Instance(model, synth.StandardQueries().Lengths)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.DualApprox(in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDualApproxDP40Tasks measures the 3/2 DP refinement.
func BenchmarkDualApproxDP40Tasks(b *testing.B) {
	p := platform.New(4, 4)
	model := p.ModelDB("uniprot", synth.UniProt.Scaled(100).GenerateLengths())
	in := p.Instance(model, synth.StandardQueries().Lengths)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.DualApproxDP(in); err != nil {
			b.Fatal(err)
		}
	}
}
