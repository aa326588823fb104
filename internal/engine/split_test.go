package engine

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"swdual/internal/alphabet"
	"swdual/internal/enginetest"
	"swdual/internal/master"
	"swdual/internal/sched"
	"swdual/internal/scoring"
	"swdual/internal/seq"
	"swdual/internal/sw"
	"swdual/internal/synth"
)

// loneSearches runs each query of queries as a lone request on an idle
// pool of cpus workers and checks every answer against want, hit for
// hit. The database is cut into cpus chunks, past the maxChunks New
// cuts, so the merge is checked over every chunk count; when there are
// chunks, each request must have run as one task per chunk.
func loneSearches(t *testing.T, label string, db, queries *seq.Set, cfg Config, cpus int, want *master.Report) {
	t.Helper()
	cfg.Pool = master.PoolSpec{CPU: cpus}
	s, err := New(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.cut(cpus) // before the first Search hands the dispatcher a wave
	for qi := range queries.Seqs {
		q := queries.Slice(qi, qi+1)
		rep, err := s.Search(context.Background(), q, SearchOptions{})
		if err != nil {
			t.Fatalf("%s, query %d: %v", label, qi, err)
		}
		sameHits(t, label, rep, &master.Report{Results: want.Results[qi : qi+1]})
		if tasks := len(rep.Schedule.Placements); len(s.chunks) > 1 && tasks != len(s.chunks) {
			t.Fatalf("%s: a lone query on %d idle workers ran as %d tasks, want one per chunk (%d)", label, cpus, tasks, len(s.chunks))
		}
		if got, cells := rep.Results[0].Cells, sw.SetCells(q.Seqs[0].Len(), db); got != cells {
			t.Fatalf("%s: %d cells reported, the query has %d", label, got, cells)
		}
	}
}

// TestSplitMatchesUnsplitAndOracle runs lone queries on pools of 1 to 8
// CPU workers, so over 1 (unsplit) to 8 chunks: every answer equals
// sw.Score's top hits, and so the one-task answer of the 1-worker pool.
func TestSplitMatchesUnsplitAndOracle(t *testing.T) {
	db, queries := testSets(31, 32, 90, 4)
	want := oracle(db, queries, 7)
	for cpus := 1; cpus <= 8; cpus++ {
		loneSearches(t, "split", db, queries, Config{TopK: 7}, cpus, want)
	}
}

// TestSplitCutsAtMostMaxChunks: New cuts no chunk for one worker and
// maxChunks for any larger pool.
func TestSplitCutsAtMostMaxChunks(t *testing.T) {
	db, _ := testSets(46, 47, 40, 1)
	for cpus := 1; cpus <= 8; cpus++ {
		s, err := New(db, Config{Pool: master.PoolSpec{CPU: cpus}})
		if err != nil {
			t.Fatal(err)
		}
		got := len(s.chunks)
		s.Close()
		want := min(cpus, maxChunks)
		if want == 1 {
			want = 0
		}
		if got != want {
			t.Fatalf("%d workers cut %d chunks, want %d", cpus, got, want)
		}
	}
}

// TestSplitSkipsEmptyChunks cuts more chunks than the database has
// subjects: the ranges past the last subject are empty and cut no chunk,
// one subject cuts none at all, and the answers stay exact.
func TestSplitSkipsEmptyChunks(t *testing.T) {
	for _, n := range []int{1, 2, 3} {
		db, queries := testSets(int64(33+n), 34, n, 2)
		s, err := New(db, Config{Pool: master.PoolSpec{CPU: 8}})
		if err != nil {
			t.Fatal(err)
		}
		s.cut(8)
		chunks := len(s.chunks)
		for _, c := range s.chunks {
			if c.set.Len() == 0 {
				t.Fatalf("%d subjects: an empty chunk was cut", n)
			}
		}
		s.Close()
		if want := map[int]int{1: 0, 2: 2, 3: 3}[n]; chunks != want {
			t.Fatalf("%d subjects in 8 ranges cut %d chunks, want %d", n, chunks, want)
		}
		loneSearches(t, "few subjects", db, queries, Config{}, 8, oracle(db, queries, DefaultTopK))
	}
}

// TestSplitNeverOnAGPUPool: a pool with a GPU-kind worker cuts no chunks.
func TestSplitNeverOnAGPUPool(t *testing.T) {
	db, _ := testSets(35, 36, 40, 1)
	s, err := New(db, Config{Pool: master.PoolSpec{CPU: 2, GPU: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.chunks != nil {
		t.Fatalf("a cpu=2,gpu=1 pool cut %d chunks", len(s.chunks))
	}
}

// TestSplitHomologsPastEightAndSixteenBits plants two homologs of the
// query, one in each chunk of a 2-worker pool: under a match-only +85
// matrix the first self-scores past the 8-bit lanes into the pair rung
// (400 × 85), the second to 65 535, past the pair kernel's 16 bits, so
// sw.Score scores it. Both must come back exact, ranked first and
// second, with their global indexes.
func TestSplitHomologsPastEightAndSixteenBits(t *testing.T) {
	m := scoring.Simple("plus85", alphabet.Protein.Len(), alphabet.Protein.Core(), 85, -1)
	p := sw.Params{Matrix: m, Gaps: scoring.Gaps{Start: 10, Extend: 1}}
	rng := synth.RandomSet(alphabet.Protein, 1, 771, 771, 37).Seqs[0].Residues
	query := seq.NewSet(alphabet.Protein)
	query.AddEncoded("q", "", rng)
	db := synth.RandomSet(alphabet.Protein, 40, 20, 120, 38)
	half := db.Len() / 2
	db.Seqs[3] = seq.Sequence{ID: "homolog16", Residues: rng[:400]}
	db.Seqs[half+3] = seq.Sequence{ID: "homolog32", Residues: bytes.Clone(rng)}
	want := oracleWith(p, db, query, 5)
	if h := want.Results[0].Hits; h[0].Score != 771*85 || h[1].Score != 400*85 {
		t.Fatalf("the planted homologs score %d and %d, want %d and %d", h[0].Score, h[1].Score, 771*85, 400*85)
	}
	s, err := New(db, Config{Params: p, Pool: master.PoolSpec{CPU: 2}})
	if err != nil {
		t.Fatal(err)
	}
	offs := s.offsets
	s.Close()
	if len(offs) != 2 || offs[1] > half+3 || offs[1] <= 3 {
		t.Fatalf("chunks start at %v: the homologs at 3 and %d are not one in each", offs, half+3)
	}
	loneSearches(t, "homologs", db, query, Config{Params: p, TopK: 5}, 2, want)
}

// TestSplitRoutedStragglerInAChunk puts a subject longer than the rest of
// its chunk's 32 lanes could hold beside short ones: on an AVX2 host
// that chunk's lane plan routes it to the pair kernel (it costs 4 × 1 800
// pair slots against 32 × 1 800 column slots in the lanes). The answer
// stays exact.
func TestSplitRoutedStragglerInAChunk(t *testing.T) {
	db := synth.RandomSet(alphabet.Protein, 60, 20, 40, 39)
	long := synth.RandomSet(alphabet.Protein, 1, 1800, 1800, 40).Seqs[0].Residues
	db.Seqs[45] = seq.Sequence{ID: "straggler", Residues: long}
	queries := seq.NewSet(alphabet.Protein)
	queries.AddEncoded("q0", "", bytes.Clone(long[300:420]))
	queries.AddEncoded("q1", "", synth.RandomSet(alphabet.Protein, 1, 90, 90, 41).Seqs[0].Residues)
	want := oracle(db, queries, 10)
	if want.Results[0].Hits[0].SeqIndex != 45 {
		t.Fatalf("the straggler is not query 0's best hit: %+v", want.Results[0].Hits[0])
	}
	loneSearches(t, "straggler", db, queries, Config{}, 2, want)
}

// TestSplitTiesBreakOnGlobalIndex searches a database of identical
// subjects, so every score ties and the top hits are the lowest global
// indexes, across the chunk boundaries of 2, 3 and 4 chunks.
func TestSplitTiesBreakOnGlobalIndex(t *testing.T) {
	one := synth.RandomSet(alphabet.Protein, 1, 60, 60, 42).Seqs[0].Residues
	db := seq.NewSet(alphabet.Protein)
	for i := 0; i < 24; i++ {
		db.AddEncoded("same", "", one)
	}
	queries := seq.NewSet(alphabet.Protein)
	queries.AddEncoded("q", "", one[10:50])
	want := oracle(db, queries, 20)
	for i, h := range want.Results[0].Hits {
		if h.SeqIndex != i {
			t.Fatalf("the oracle's hit %d is subject %d", i, h.SeqIndex)
		}
	}
	for _, cpus := range []int{2, 3, 4} {
		loneSearches(t, "ties", db, queries, Config{TopK: 20}, cpus, want)
	}
}

// waitIdle waits until the pool counts n idle CPU workers: running
// nothing, and not claimed by a queued task.
func waitIdle(t *testing.T, s *Searcher, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); s.pool.Idle()[sched.CPU] != n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the pool counts %v idle workers, want %d CPUs", s.pool.Idle(), n)
		}
	}
}

// TestSplitOnlyOnAnIdlePool: a lone request planned while one of three
// workers is busy runs as one task, though the two idle ones could take
// both its chunks; once the whole pool is idle a lone request runs as
// one task per chunk.
func TestSplitOnlyOnAnIdlePool(t *testing.T) {
	// A pool computes on at most GOMAXPROCS workers at once; all three
	// must be able to hold a task.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(3, runtime.GOMAXPROCS(0))))
	rig := newStepRig(t, stepWorker{name: "w0", rate: 1}, stepWorker{name: "w1", rate: 1}, stepWorker{name: "w2", rate: 1})
	if len(rig.s.chunks) != maxChunks {
		t.Fatalf("3 workers cut %d chunks, want %d", len(rig.s.chunks), maxChunks)
	}
	// Three queries pin all three workers, one task each (not split).
	outA := rig.search([]int{20, 30, 40}, "a0", "a1", "a2")
	pinned := []started{rig.nextStart(), rig.nextStart(), rig.nextStart()}
	rig.finish(pinned[0].worker)
	rig.finish(pinned[1].worker)
	// finish returns once a worker took its token, maybe before the pool
	// counts it idle again; request b must be planned on two idle workers.
	waitIdle(t, rig.s, 2)

	outB := rig.search([]int{30}, "b")
	rig.finish(rig.nextStart().worker)
	if rep := rig.wait("request b", outB); len(rep.Schedule.Placements) != 1 || rep.Results[0].Cells != 1 {
		t.Fatalf("request b, planned beside a busy worker, ran as %d tasks over %d cells, want one",
			len(rep.Schedule.Placements), rep.Results[0].Cells)
	}
	rig.finish(pinned[2].worker)
	rig.wait("request a", outA)
	waitIdle(t, rig.s, 3)

	outC := rig.search([]int{25}, "c")
	c0, c1 := rig.nextStart(), rig.nextStart()
	rig.finish(c0.worker)
	rig.finish(c1.worker)
	if rep := rig.wait("request c", outC); len(rep.Schedule.Placements) != maxChunks || rep.Results[0].Cells != maxChunks {
		t.Fatalf("request c, on an idle pool, ran as %d tasks over %d cells, want one per chunk (%d)",
			len(rep.Schedule.Placements), rep.Results[0].Cells, maxChunks)
	}
}

// TestSplitCancelWhileAChunkRuns cancels a lone request split over two
// workers after one chunk finished, while the other runs: Search returns
// the context's error at once, the Searcher answers the next request,
// and after Close no goroutine is left.
func TestSplitCancelWhileAChunkRuns(t *testing.T) {
	check := enginetest.LeakCheck(t)
	rig := newStepRig(t, stepWorker{name: "w0", rate: 1}, stepWorker{name: "w1", rate: 1})
	ctx, cancel := context.WithCancel(context.Background())
	outB := make(chan error, 1)
	go func() {
		q := seq.NewSet(alphabet.Protein)
		q.AddEncoded("b", "", synth.RandomSet(alphabet.Protein, 1, 30, 30, 43).Seqs[0].Residues)
		_, err := rig.s.Search(ctx, q, SearchOptions{})
		outB <- err
	}()
	b0, b1 := rig.nextStart(), rig.nextStart()
	if b0.query != "b" || b1.query != "b" {
		t.Fatalf("request b started as %+v and %+v, want its two chunks", b0, b1)
	}
	rig.finish(b0.worker)
	cancel()
	select {
	case err := <-outB:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled split search returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("canceled split search did not return")
	}
	rig.finish(b1.worker)
	waitIdle(t, rig.s, 2)
	rig.noStart("the canceled request had no chunk left")

	next := rig.search([]int{25}, "c")
	c0, c1 := rig.nextStart(), rig.nextStart()
	rig.finish(c0.worker)
	rig.finish(c1.worker)
	if res := rig.wait("request c", next).Results[0]; res.Cells != 2 {
		t.Fatalf("request c counts %d cells over its two chunks, want 2", res.Cells)
	}
	if err := rig.s.Close(); err != nil {
		t.Fatal(err)
	}
	check()
}

// TestSplitCloseInFlight closes the Searcher while both chunks of a
// split lone request are held in their workers: Close waits for them,
// the request gets its whole, exact answer, and Close then returns.
func TestSplitCloseInFlight(t *testing.T) {
	db, queries := testSets(44, 45, 30, 1)
	want := oracle(db, queries, 5)
	entered, release := make(chan string, 2), make(chan struct{})
	var workers []master.Worker
	for _, w := range master.BuildPoolWorkers(sw.DefaultParams(), master.PoolSpec{CPU: 2}, 5) {
		workers = append(workers, &gatedWorker{Worker: w, entered: entered, release: release})
	}
	s, err := New(db, Config{Workers: workers, TopK: 5})
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan outcome, 1)
	go func() {
		rep, err := s.Search(context.Background(), queries, SearchOptions{})
		out <- outcome{rep, err}
	}()
	if a, b := <-entered, <-entered; a == b {
		t.Fatalf("both chunks entered %s", a)
	}
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	select {
	case err := <-closed:
		t.Fatalf("Close returned %v with a split wave in flight", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	o := <-out
	if o.err != nil {
		t.Fatal(o.err)
	}
	sameHits(t, "closed in flight", o.rep, want)
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
}

// gatedWorker scores for real, but announces every task on entered and
// holds it until release is closed.
type gatedWorker struct {
	master.Worker
	entered chan<- string
	release <-chan struct{}
}

func (w *gatedWorker) Run(qi int, q *seq.Sequence, db *seq.Set) master.QueryResult {
	w.entered <- w.Name()
	<-w.release
	return w.Worker.Run(qi, q, db)
}
