package swdual_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"swdual"
	"swdual/internal/bench"
)

func TestAlignPair(t *testing.T) {
	al, err := swdual.AlignPair("MKWVTFISLL", "MKWVTFISLL", swdual.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if al.Identity != 1.0 {
		t.Fatalf("self alignment identity %v", al.Identity)
	}
	if al.CIGAR != "10M" {
		t.Fatalf("self alignment CIGAR %q", al.CIGAR)
	}
	score, err := swdual.ScorePair("MKWVTFISLL", "MKWVTFISLL", swdual.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if score != al.Score {
		t.Fatalf("ScorePair %d != AlignPair %d", score, al.Score)
	}
	if _, err := swdual.AlignPair("MKW#", "MKW", swdual.Options{}); err == nil {
		t.Fatal("expected error for invalid residue")
	}
}

// TestMatrixMustCoverTheAlphabet: a matrix with fewer residue codes
// than the sequences' alphabet (DNA on protein) is refused by the
// pairwise calls, by Search and by ServeShard. Scoring with it would
// read past the matrix: the pairwise oracle panicked, and a search
// answered score 0 for an exact self-match.
func TestMatrixMustCoverTheAlphabet(t *testing.T) {
	const self = "MKWVTFISLLFLFSSAYS"
	dna := swdual.Options{Matrix: "DNA"}
	refused := func(what string, call func() error) {
		t.Helper()
		defer func() {
			if p := recover(); p != nil {
				t.Fatalf("%s panicked: %v", what, p)
			}
		}()
		if err := call(); err == nil || !strings.Contains(err.Error(), "fewer than the protein alphabet's") {
			t.Fatalf("%s with the DNA matrix on protein: %v, want it refused", what, err)
		}
	}
	refused("ScorePair", func() error { _, err := swdual.ScorePair(self, self, dna); return err })
	refused("AlignPair", func() error { _, err := swdual.AlignPair(self, self, dna); return err })
	db, err := swdual.FromSequences([]string{"s"}, []string{self})
	if err != nil {
		t.Fatal(err)
	}
	refused("Search", func() error { _, err := swdual.Search(db, db, dna); return err })
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l.Close() // a closed listener ends a ServeShard that got past its checks with nil
	refused("ServeShard", func() error { return swdual.ServeShard(l, db, 0, 1, dna) })
}

// TestNegativeGapPenaltiesRefused: only 0 selects a default gap
// penalty; a negative one reaches validation and is refused instead of
// being silently replaced by the default.
func TestNegativeGapPenaltiesRefused(t *testing.T) {
	const self = "MKWVTFISLLFLFSSAYS"
	db, err := swdual.FromSequences([]string{"s"}, []string{self})
	if err != nil {
		t.Fatal(err)
	}
	for _, opt := range []swdual.Options{
		{GapStart: -5, GapExtend: -1},
		{GapStart: -5},
		{GapExtend: -1},
	} {
		if score, err := swdual.ScorePair(self, self, opt); err == nil || !strings.Contains(err.Error(), "invalid gap penalties") {
			t.Fatalf("ScorePair with Gs=%d Ge=%d: score %d, error %v; want it refused", opt.GapStart, opt.GapExtend, score, err)
		}
		if _, err := swdual.NewSearcher(db, opt); err == nil || !strings.Contains(err.Error(), "invalid gap penalties") {
			t.Fatalf("NewSearcher with Gs=%d Ge=%d: %v, want it refused", opt.GapStart, opt.GapExtend, err)
		}
	}
	got, err := swdual.ScorePair(self, self, swdual.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := swdual.ScorePair(self, self, swdual.Options{GapStart: 10, GapExtend: 2})
	if err != nil || got != want {
		t.Fatalf("zero gaps scored %d, explicit defaults %d (%v)", got, want, err)
	}
}

// TestSearchRunsOnlyMeasuredWorkers: a search runs only workers whose
// time is measured. NewSearcher, Search and ServeShard refuse a pool of
// simulated GPUs with an error that points at Plan, which models them,
// and the empty pool is one CPU worker per GOMAXPROCS.
func TestSearchRunsOnlyMeasuredWorkers(t *testing.T) {
	db, err := swdual.GenerateDatabase("UniProt", 50000)
	if err != nil {
		t.Fatal(err)
	}
	queries, err := swdual.GenerateQueries("standard", 400)
	if err != nil {
		t.Fatal(err)
	}
	gpu := swdual.Options{Pool: "cpu=1,gpu=1"}
	refused := func(what string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "Plan") {
			t.Fatalf("%s with pool %q: %v, want it refused naming Plan", what, gpu.Pool, err)
		}
	}
	s, err := swdual.NewSearcher(db, gpu)
	if err == nil {
		s.Close()
	}
	refused("NewSearcher", err)
	_, err = swdual.Search(db, queries, gpu)
	refused("Search", err)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l.Close() // a closed listener ends a ServeShard that got past its checks with nil
	refused("ServeShard", swdual.ServeShard(l, db, 0, 1, gpu))
	if _, err := swdual.Plan(db, queries, gpu); err != nil {
		t.Fatalf("Plan refused pool %q: %v", gpu.Pool, err)
	}

	s, err = swdual.NewSearcher(db, swdual.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	workers := s.Stats().Workers
	if len(workers) != runtime.GOMAXPROCS(0) {
		t.Fatalf("the default pool runs %d workers, want GOMAXPROCS = %d", len(workers), runtime.GOMAXPROCS(0))
	}
	for _, w := range workers {
		if !strings.HasPrefix(w.Name, "cpu-") || w.Kind.String() != "CPU" {
			t.Fatalf("the default pool runs %s (%s), want only cpu-* workers", w.Name, w.Kind)
		}
	}
}

// TestNegativeTopKRefused: only 0 selects the default hit cap; a
// negative TopK, in Options or in one search's SearchOptions, is
// refused instead of being silently replaced by the default.
func TestNegativeTopKRefused(t *testing.T) {
	db, err := swdual.FromSequences([]string{"s", "t"}, []string{"MKWVTFISLLFLFSSAYS", "ARNDCQEGHILKMFPSTWYV"})
	if err != nil {
		t.Fatal(err)
	}
	if rep, err := swdual.Search(db, db, swdual.Options{Pool: "cpu=1", TopK: -3}); err == nil || !strings.Contains(err.Error(), "negative TopK -3") {
		t.Fatalf("Search with TopK -3: %v, %v; want it refused", rep, err)
	}
	s, err := swdual.NewSearcher(db, swdual.Options{Pool: "cpu=1", TopK: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if rep, err := s.Search(context.Background(), db, swdual.SearchOptions{TopK: -1}); err == nil || !strings.Contains(err.Error(), "negative TopK -1") {
		t.Fatalf("Searcher.Search with TopK -1: %v, %v; want it refused", rep, err)
	}
}

func TestSearchPoliciesAgree(t *testing.T) {
	db, err := swdual.GenerateDatabase("UniProt", 20000)
	if err != nil {
		t.Fatal(err)
	}
	queries, err := swdual.GenerateQueries("standard", 200)
	if err != nil {
		t.Fatal(err)
	}
	var ref *swdual.Report
	for _, policy := range []string{"dual-approx", "self-scheduling", "round-robin"} {
		rep, err := swdual.Search(db, queries, swdual.Options{Pool: "cpu=4", TopK: 5, Policy: policy})
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		if len(rep.Results) != queries.Len() {
			t.Fatalf("%s: %d results for %d queries", policy, len(rep.Results), queries.Len())
		}
		if ref == nil {
			ref = rep
			continue
		}
		for qi := range rep.Results {
			got, want := rep.Results[qi].Hits, ref.Results[qi].Hits
			if len(got) != len(want) {
				t.Fatalf("%s query %d: %d hits vs %d", policy, qi, len(got), len(want))
			}
			for i := range got {
				if got[i].Score != want[i].Score || got[i].SeqIndex != want[i].SeqIndex {
					t.Fatalf("%s query %d hit %d: (%d,%d) vs (%d,%d)", policy, qi, i,
						got[i].SeqIndex, got[i].Score, want[i].SeqIndex, want[i].Score)
				}
			}
		}
	}
}

func TestDatabaseRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db, err := swdual.GenerateDatabase("Ensembl Rat Proteins", 2000)
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(dir, "db.swdb")
	fa := filepath.Join(dir, "db.fasta")
	if err := db.SaveBinary(bin); err != nil {
		t.Fatal(err)
	}
	if err := db.SaveFASTA(fa); err != nil {
		t.Fatal(err)
	}
	fromBin, err := swdual.OpenDatabase(bin)
	if err != nil {
		t.Fatal(err)
	}
	defer fromBin.Close()
	fromFA, err := swdual.LoadFASTA(fa)
	if err != nil {
		t.Fatal(err)
	}
	if fromBin.Len() != db.Len() || fromFA.Len() != db.Len() {
		t.Fatalf("round trip lengths: bin %d fasta %d want %d", fromBin.Len(), fromFA.Len(), db.Len())
	}
	for i := 0; i < db.Len(); i++ {
		id0, res0 := db.Sequence(i)
		id1, res1 := fromBin.Sequence(i)
		id2, res2 := fromFA.Sequence(i)
		if id0 != id1 || res0 != res1 {
			t.Fatalf("binary round trip mismatch at %d", i)
		}
		if id0 != id2 || res0 != res2 {
			t.Fatalf("fasta round trip mismatch at %d", i)
		}
	}
}

func TestPlanPaperScale(t *testing.T) {
	plan, err := swdual.PaperPlatformPlan("UniProt", "standard", 8)
	if err != nil {
		t.Fatal(err)
	}
	// Paper Table IV: 142.98 s at 8 workers; the model must land in the
	// same regime (±25%).
	if plan.Makespan < 107 || plan.Makespan > 179 {
		t.Fatalf("8-worker UniProt plan %.2f s, want within 25%% of 142.98", plan.Makespan)
	}
	if plan.Makespan < plan.LowerBound {
		t.Fatalf("makespan %.2f below lower bound %.2f", plan.Makespan, plan.LowerBound)
	}
	if plan.Makespan > 2*plan.LowerBound {
		t.Fatalf("makespan %.2f violates the 2x guarantee against LB %.2f", plan.Makespan, plan.LowerBound)
	}
}

// TestPlanUsesPool: Plan models the PEs of Options.Pool — the 4 CPUs +
// 2 modelled GPUs of a pool only Plan takes, and the 3 CPUs of a pool a
// Searcher with the same Options starts.
func TestPlanUsesPool(t *testing.T) {
	db, err := swdual.GenerateDatabase("UniProt", 20000)
	if err != nil {
		t.Fatal(err)
	}
	queries, err := swdual.GenerateQueries("standard", 50)
	if err != nil {
		t.Fatal(err)
	}
	planned := func(pool string) map[string]int {
		t.Helper()
		plan, err := swdual.Plan(db, queries, swdual.Options{Pool: pool})
		if err != nil {
			t.Fatal(err)
		}
		pes := map[string]int{}
		for _, tp := range plan.Tasks {
			pes[tp.Kind] = max(pes[tp.Kind], tp.PE+1)
		}
		return pes
	}
	if pes := planned("cpu=4,gpu=2"); pes["CPU"] != 4 || pes["GPU"] != 2 {
		t.Fatalf("planned on %d CPU + %d GPU PEs, want 4 + 2", pes["CPU"], pes["GPU"])
	}
	opt := swdual.Options{Pool: "cpu=3"}
	pes := planned(opt.Pool)
	if pes["CPU"] != 3 || pes["GPU"] != 0 {
		t.Fatalf("planned on %d CPU + %d GPU PEs, want 3 + 0", pes["CPU"], pes["GPU"])
	}
	s, err := swdual.NewSearcher(db, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	workers := map[string]int{}
	for _, w := range s.Stats().Workers {
		workers[w.Kind.String()]++
	}
	if !reflect.DeepEqual(workers, pes) {
		t.Fatalf("the Searcher runs %v workers, Plan modeled %v", workers, pes)
	}
}

// TestPlanHonorsPolicy: Plan plans with the scheduler the engine runs for
// Options.Policy, and refuses the names NewSearcher refuses with the same
// error, which lists every valid policy.
func TestPlanHonorsPolicy(t *testing.T) {
	db, err := swdual.GenerateDatabase("UniProt", 20000)
	if err != nil {
		t.Fatal(err)
	}
	queries, err := swdual.GenerateQueries("standard", 50)
	if err != nil {
		t.Fatal(err)
	}
	for policy, want := range map[string]string{
		"":                "dual-2approx",
		"dual-approx":     "dual-2approx",
		"round-robin":     "equal-power",
		"self-scheduling": "self-scheduling",
	} {
		plan, err := swdual.Plan(db, queries, swdual.Options{Pool: "cpu=2,gpu=2", Policy: policy})
		if err != nil {
			t.Fatalf("policy %q: %v", policy, err)
		}
		if plan.Algorithm != want {
			t.Fatalf("policy %q planned with %s, want %s", policy, plan.Algorithm, want)
		}
		if len(plan.Tasks) != queries.Len() {
			t.Fatalf("policy %q: %d planned tasks for %d queries", policy, len(plan.Tasks), queries.Len())
		}
		if policy != "round-robin" {
			continue
		}
		// Round-robin deals GPUs first, as master.Assign queues it.
		for i, kind := range []string{"GPU", "GPU", "CPU", "CPU", "GPU"} {
			if plan.Tasks[i].Kind != kind {
				t.Fatalf("round-robin task %d on %s, want %s", i, plan.Tasks[i].Kind, kind)
			}
		}
	}

	bogus := swdual.Options{Policy: "bogus"}
	_, planErr := swdual.Plan(db, queries, bogus)
	_, searcherErr := swdual.NewSearcher(db, bogus)
	if planErr == nil || searcherErr == nil || planErr.Error() != searcherErr.Error() {
		t.Fatalf("Plan error %v, NewSearcher error %v: both must refuse the policy alike", planErr, searcherErr)
	}
	for _, valid := range []string{"dual-approx", "self-scheduling", "round-robin"} {
		if !strings.Contains(planErr.Error(), valid) {
			t.Fatalf("Plan error %q does not list %q", planErr, valid)
		}
	}
}

// TestPaperPlatformPlanIsPlan: the paper-scale plan of a preset is Plan
// over the same lengths on the pool Table IV splits the workers into.
func TestPaperPlatformPlanIsPlan(t *testing.T) {
	const preset = "Ensembl Dog Proteins"
	db, err := swdual.GenerateDatabase(preset, 1)
	if err != nil {
		t.Fatal(err)
	}
	queries, err := swdual.GenerateQueries("standard", 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 5} {
		gpus, cpus := bench.WorkerSplit(workers)
		got, err := swdual.PaperPlatformPlan(preset, "standard", workers)
		if err != nil {
			t.Fatal(err)
		}
		want, err := swdual.Plan(db, queries, swdual.Options{Pool: fmt.Sprintf("cpu=%d,gpu=%d", cpus, gpus)})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%d workers: PaperPlatformPlan %+v, Plan %+v", workers, got, want)
		}
	}
	if _, err := swdual.PaperPlatformPlan(preset, "bogus", 2); err == nil {
		t.Fatal("an unknown query set was accepted")
	}
}

// TestConcurrentSearcherMatchesSerialOneShot is the acceptance check of
// the persistent engine: 8 concurrent Search calls on one Searcher must
// return hits identical to 8 serial one-shot swdual.Search calls.
func TestConcurrentSearcherMatchesSerialOneShot(t *testing.T) {
	db, err := swdual.GenerateDatabase("UniProt", 20000)
	if err != nil {
		t.Fatal(err)
	}
	opt := swdual.Options{Pool: "cpu=4", TopK: 5}
	const callers = 8
	querySets := make([]*swdual.Database, callers)
	serial := make([]*swdual.Report, callers)
	for i := range querySets {
		querySets[i], err = swdual.GenerateQueries("standard", 300+10*i)
		if err != nil {
			t.Fatal(err)
		}
		serial[i], err = swdual.Search(db, querySets[i], opt)
		if err != nil {
			t.Fatal(err)
		}
	}
	s, err := swdual.NewSearcher(db, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	concurrent := make([]*swdual.Report, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			concurrent[i], errs[i] = s.Search(context.Background(), querySets[i], swdual.SearchOptions{})
		}(i)
	}
	wg.Wait()
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if len(concurrent[i].Results) != len(serial[i].Results) {
			t.Fatalf("caller %d: %d results vs %d", i, len(concurrent[i].Results), len(serial[i].Results))
		}
		for qi := range concurrent[i].Results {
			got, want := concurrent[i].Results[qi].Hits, serial[i].Results[qi].Hits
			if len(got) != len(want) {
				t.Fatalf("caller %d query %d: %d hits vs %d", i, qi, len(got), len(want))
			}
			for hi := range got {
				if got[hi] != want[hi] {
					t.Fatalf("caller %d query %d hit %d: %+v vs %+v", i, qi, hi, got[hi], want[hi])
				}
			}
		}
	}
}

// TestSearcherSkipsRePreparation demonstrates the amortization contract:
// a second Search on the same Searcher reuses the prepared database and
// the running workers instead of rebuilding them.
func TestSearcherSkipsRePreparation(t *testing.T) {
	db, err := swdual.GenerateDatabase("RefSeq Mouse Proteins", 20000)
	if err != nil {
		t.Fatal(err)
	}
	queries, err := swdual.GenerateQueries("standard", 400)
	if err != nil {
		t.Fatal(err)
	}
	s, err := swdual.NewSearcher(db, swdual.Options{Pool: "cpu=2", TopK: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Search(context.Background(), queries, swdual.SearchOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Search(context.Background(), queries, swdual.SearchOptions{}); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Prepared != 1 {
		t.Fatalf("database prepared %d times across two searches, want 1", st.Prepared)
	}
	if st.WorkersStarted != 2 {
		t.Fatalf("workers started %d times, want 2 (the pool's 2 CPUs, never rebuilt)", st.WorkersStarted)
	}
	if st.Searches != 2 {
		t.Fatalf("searches %d, want 2", st.Searches)
	}
}

// TestSearcherServe drives the wire end to end over the public API:
// ServeShard with count 1 serves the whole database, a one-range
// ReplicaShards coordinator searches it, and the hits equal a local
// search. ServeShard returns nil once its listener closes.
func TestSearcherServe(t *testing.T) {
	db, err := swdual.GenerateDatabase("Ensembl Dog Proteins", 20000)
	if err != nil {
		t.Fatal(err)
	}
	queries, err := swdual.GenerateQueries("standard", 400)
	if err != nil {
		t.Fatal(err)
	}
	opt := swdual.Options{Pool: "cpu=2", TopK: 3}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- swdual.ServeShard(l, db, 0, 1, opt) }()
	coordOpt := opt
	coordOpt.ReplicaShards = [][]string{{l.Addr().String()}}
	s, err := swdual.NewSearcher(db, coordOpt)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	remote, err := s.Search(context.Background(), queries, swdual.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	local, err := swdual.Search(db, queries, opt)
	if err != nil {
		t.Fatal(err)
	}
	for qi := range remote.Results {
		got, want := remote.Results[qi].Hits, local.Results[qi].Hits
		if len(got) != len(want) {
			t.Fatalf("query %d: %d hits vs %d", qi, len(got), len(want))
		}
		for hi := range got {
			if got[hi].SeqIndex != want[hi].SeqIndex || got[hi].Score != want[hi].Score {
				t.Fatalf("query %d hit %d mismatch", qi, hi)
			}
		}
	}
	l.Close()
	if err := <-serveDone; err != nil {
		t.Fatalf("serve: %v", err)
	}
}

// TestServedRangeHonorsTopK: a search's TopK reaches the server, so a
// coordinator asking a TopK 10 server for 3 hits gets exactly the first
// 3 of a local search, not the server's 10.
func TestServedRangeHonorsTopK(t *testing.T) {
	db, err := swdual.GenerateDatabase("UniProt", 20000)
	if err != nil {
		t.Fatal(err)
	}
	queries, err := swdual.GenerateQueries("standard", 400)
	if err != nil {
		t.Fatal(err)
	}
	opt := swdual.Options{Pool: "cpu=1", TopK: 10}
	srv := swdual.StartShardServer(t, "127.0.0.1:0", db, 0, 1, opt)
	coordOpt := opt
	coordOpt.ReplicaShards = [][]string{{srv.Addr().String()}}
	s, err := swdual.NewSearcher(db, coordOpt)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	remote, err := s.Search(context.Background(), queries, swdual.SearchOptions{TopK: 3})
	if err != nil {
		t.Fatal(err)
	}
	local, err := swdual.Search(db, queries, opt)
	if err != nil {
		t.Fatal(err)
	}
	for qi := range local.Results {
		got, want := remote.Results[qi].Hits, local.Results[qi].Hits
		if len(want) < 3 || len(got) != 3 {
			t.Fatalf("query %d: %d remote hits (want 3), %d local", qi, len(got), len(want))
		}
		for hi := range got {
			if got[hi] != want[hi] {
				t.Fatalf("query %d hit %d: %+v, local %+v", qi, hi, got[hi], want[hi])
			}
		}
	}
}

// TestShardedSearcherMatchesUnsharded is the public-API acceptance check
// of the sharding layer: a ReplicaShards coordinator over ServeShard
// servers must return hits identical to the unsharded engine, under both
// names of the one split ("" and "balanced"); any other ShardSplit is
// refused before anything is dialed.
func TestShardedSearcherMatchesUnsharded(t *testing.T) {
	const shardCount = 3
	db, err := swdual.GenerateDatabase("UniProt", 20000)
	if err != nil {
		t.Fatal(err)
	}
	queries, err := swdual.GenerateQueries("standard", 400)
	if err != nil {
		t.Fatal(err)
	}
	want, err := swdual.Search(db, queries, swdual.Options{Pool: "cpu=2", TopK: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, split := range []string{"", "balanced"} {
		opt := swdual.Options{Pool: "cpu=2", TopK: 5, ShardSplit: split}
		coordOpt := opt
		for i := 0; i < shardCount; i++ {
			srv := swdual.StartShardServer(t, "127.0.0.1:0", db, i, shardCount, opt)
			coordOpt.ReplicaShards = append(coordOpt.ReplicaShards, []string{srv.Addr().String()})
		}
		s, err := swdual.NewSearcher(db, coordOpt)
		if err != nil {
			t.Fatal(err)
		}
		if s.Shards() != shardCount {
			t.Fatalf("%q: %d shards, want %d", split, s.Shards(), shardCount)
		}
		got, err := s.Search(context.Background(), queries, swdual.SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sameReports(t, fmt.Sprintf("split %q", split), got, want)
		if st := s.Stats(); st.Prepared != shardCount {
			t.Fatalf("%q: %d preparation passes, want one per shard server", split, st.Prepared)
		}

		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// Any other split is refused, naming the one split, before anything
	// is dialed: the listener below never sees a connection.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	addr := l.Addr().String()
	for _, split := range []string{"contiguous", "bogus"} {
		_, err := swdual.NewSearcher(db, swdual.Options{ReplicaShards: [][]string{{addr}, {addr}}, ShardSplit: split})
		if err == nil || !strings.Contains(err.Error(), split) || !strings.Contains(err.Error(), "balanced") {
			t.Fatalf("shard split %q: %v, want it refused by name, naming balanced", split, err)
		}
	}
	if err := l.(*net.TCPListener).SetDeadline(time.Now().Add(50 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if c, err := l.Accept(); err == nil {
		c.Close()
		t.Fatal("a refused shard split dialed a server")
	}
}

// TestRemoteShardedSearcherMatchesUnsharded is the public cluster-serve
// acceptance test: two ServeShard processes (played by goroutines) plus
// a coordinator built with one ReplicaShards address per range must
// return hits byte-identical to a single-process unsharded search of the
// same database, its Options must plan what the unsharded Options plan,
// and a coordinator pointed at a skewed database must be
// refused at construction.
func TestRemoteShardedSearcherMatchesUnsharded(t *testing.T) {
	const shardCount = 2
	db, err := swdual.GenerateDatabase("UniProt", 20000)
	if err != nil {
		t.Fatal(err)
	}
	queries, err := swdual.GenerateQueries("standard", 400)
	if err != nil {
		t.Fatal(err)
	}
	opt := swdual.Options{Pool: "cpu=2", TopK: 5}
	want, err := swdual.Search(db, queries, opt)
	if err != nil {
		t.Fatal(err)
	}

	addrs := make([]string, shardCount)
	serveDone := make(chan error, shardCount)
	for i := 0; i < shardCount; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		addrs[i] = l.Addr().String()
		go func(i int, l net.Listener) {
			serveDone <- swdual.ServeShard(l, db, i, shardCount, opt)
		}(i, l)
	}

	coordOpt := opt
	for _, addr := range addrs {
		coordOpt.ReplicaShards = append(coordOpt.ReplicaShards, []string{addr})
	}
	s, err := swdual.NewSearcher(db, coordOpt)
	if err != nil {
		t.Fatal(err)
	}
	if s.Shards() != shardCount {
		t.Fatalf("%d shards, want %d", s.Shards(), shardCount)
	}
	got, err := s.Search(context.Background(), queries, swdual.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sameReports(t, "cluster", got, want)
	if st := s.Stats(); st.Prepared != shardCount {
		t.Fatalf("%d preparation passes, want one per shard server", st.Prepared)
	}
	// A plan models the pool, not the topology: the coordinator's Options
	// plan field for field what the unsharded Options plan.
	gotPlan, err := swdual.Plan(db, queries, coordOpt)
	if err != nil {
		t.Fatal(err)
	}
	wantPlan, err := swdual.Plan(db, queries, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotPlan, wantPlan) {
		t.Fatalf("coordinator plan %+v, want %+v", gotPlan, wantPlan)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// A coordinator whose local database differs from the servers' must
	// be rejected by the checksum skew guard before any search.
	skewed, err := swdual.GenerateDatabase("Ensembl Dog Proteins", 20000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := swdual.NewSearcher(skewed, coordOpt); err == nil {
		t.Fatal("skewed coordinator database accepted")
	}

	// ServeShard validates its slice coordinates before touching the
	// listener.
	if err := swdual.ServeShard(nil, db, 2, 2, opt); err == nil {
		t.Fatal("out-of-range shard index accepted")
	}
	if err := swdual.ServeShard(nil, nil, 0, 2, opt); err == nil {
		t.Fatal("nil database accepted")
	}
}

// TestCoordinatorRefusesShardServersCappedBelowItsTopK: a shard server
// returns at most its own TopK hits per query, so a coordinator
// gathering more would merge truncated lists into a wrong top-k. Such a
// server is refused at construction, with an error naming the range, the
// address and both caps; with equal caps the cluster stays byte-identical
// to an unsharded search.
func TestCoordinatorRefusesShardServersCappedBelowItsTopK(t *testing.T) {
	const shardCount = 2
	db, err := swdual.GenerateDatabase("UniProt", 20000)
	if err != nil {
		t.Fatal(err)
	}
	queries, err := swdual.GenerateQueries("standard", 400)
	if err != nil {
		t.Fatal(err)
	}
	serverOpt := swdual.Options{Pool: "cpu=1", TopK: 5}
	var groups [][]string
	for i := 0; i < shardCount; i++ {
		srv := swdual.StartShardServer(t, "127.0.0.1:0", db, i, shardCount, serverOpt)
		groups = append(groups, []string{srv.Addr().String()})
	}

	coordOpt := swdual.Options{Pool: "cpu=1", TopK: 20, ReplicaShards: groups, DialTimeout: 5 * time.Second}
	s, err := swdual.NewSearcher(db, coordOpt)
	if err == nil {
		s.Close()
		t.Fatal("coordinator with TopK 20 accepted shard servers capped at 5")
	}
	for _, want := range []string{"shard 0 [0,", groups[0][0], "TopK 5", "TopK 20"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("refusal %q does not name %q", err, want)
		}
	}

	coordOpt.TopK = serverOpt.TopK
	s, err = swdual.NewSearcher(db, coordOpt)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	got, err := s.Search(context.Background(), queries, swdual.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := swdual.Search(db, queries, serverOpt)
	if err != nil {
		t.Fatal(err)
	}
	sameReports(t, "equal caps", got, want)
}

// TestCoordinatorRefusesShardServersScoringOtherwise: the Welcome names
// the server's matrix and gap penalties, and a coordinator refuses a
// server whose scoring is not its own — here a BLOSUM50 coordinator over
// a BLOSUM62 range and a PAM250 range, whose merged hits would differ
// from a BLOSUM50 search without an error. A matching cluster's hits
// stay byte-identical to a local search.
func TestCoordinatorRefusesShardServersScoringOtherwise(t *testing.T) {
	db, err := swdual.GenerateDatabase("UniProt", 20000)
	if err != nil {
		t.Fatal(err)
	}
	queries, err := swdual.GenerateQueries("standard", 400)
	if err != nil {
		t.Fatal(err)
	}
	start := func(matrices ...string) [][]string {
		var groups [][]string
		for i, m := range matrices {
			srv := swdual.StartShardServer(t, "127.0.0.1:0", db, i, len(matrices), swdual.Options{Pool: "cpu=1", Matrix: m})
			groups = append(groups, []string{srv.Addr().String()})
		}
		return groups
	}
	coordOpt := swdual.Options{Pool: "cpu=1", Matrix: "BLOSUM50", DialTimeout: 5 * time.Second}

	coordOpt.ReplicaShards = start("BLOSUM62", "PAM250")
	if s, err := swdual.NewSearcher(db, coordOpt); err == nil {
		s.Close()
		t.Fatal("a BLOSUM50 coordinator accepted BLOSUM62 and PAM250 shard servers")
	} else {
		for _, want := range []string{"shard 0 [0,", coordOpt.ReplicaShards[0][0], "BLOSUM62 10/2", "BLOSUM50 10/2"} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("refusal %q does not name %q", err, want)
			}
		}
	}

	coordOpt.ReplicaShards = start("BLOSUM50", "BLOSUM50")
	s, err := swdual.NewSearcher(db, coordOpt)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	got, err := s.Search(context.Background(), queries, swdual.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := swdual.Search(db, queries, swdual.Options{Pool: "cpu=1", Matrix: "BLOSUM50"})
	if err != nil {
		t.Fatal(err)
	}
	sameReports(t, "BLOSUM50 cluster", got, want)
}

// TestRedialRefusesReplicaRestartedWithOtherGaps: the scoring check
// guards every redial, not only the first dial. A shard server restarted
// on its address with other gap penalties is dialed and refused, so its
// range stays dark; a server restarted with the coordinator's scoring is
// admitted again.
func TestRedialRefusesReplicaRestartedWithOtherGaps(t *testing.T) {
	const shardCount = 2
	db, err := swdual.GenerateDatabase("UniProt", 20000)
	if err != nil {
		t.Fatal(err)
	}
	queries, err := swdual.GenerateQueries("standard", 400)
	if err != nil {
		t.Fatal(err)
	}
	opt := swdual.Options{Pool: "cpu=1", TopK: 5, DialTimeout: 5 * time.Second}
	want, err := swdual.Search(db, queries, opt)
	if err != nil {
		t.Fatal(err)
	}
	servers := make([]*swdual.ShardServer, shardCount)
	coordOpt := opt
	for i := range servers {
		servers[i] = swdual.StartShardServer(t, "127.0.0.1:0", db, i, shardCount, opt)
		coordOpt.ReplicaShards = append(coordOpt.ReplicaShards, []string{servers[i].Addr().String()})
	}
	s, err := swdual.NewSearcher(db, coordOpt)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()

	// A search over the dead range marks its replica down and starts the
	// redial loop.
	addr := servers[1].Addr().String()
	servers[1].Kill()
	if got, err := s.Search(ctx, queries, swdual.SearchOptions{}); err != nil || got.Coverage == nil {
		t.Fatalf("search over a dead shard server: %v, coverage %+v, want a partial answer", err, got)
	}
	otherGaps := opt
	otherGaps.GapStart = 11
	wrong := swdual.StartShardServer(t, addr, db, 1, shardCount, otherGaps)
	// A second connection means the first redial was refused: an
	// admitted one would end the loop.
	for deadline := time.Now().Add(30 * time.Second); wrong.Accepted() < 2; time.Sleep(20 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d redials of the restarted shard server in 30s, want a refused one and a retry", wrong.Accepted())
		}
	}
	got, err := s.Search(ctx, queries, swdual.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Coverage == nil || len(got.Coverage.Skipped) != 1 || got.Coverage.Skipped[0].Index != 1 {
		t.Fatalf("coverage %+v after redialing a server with other gaps, want range 1 still skipped", got.Coverage)
	}
	wantReason := fmt.Sprintf("all 1 replicas unavailable: replica 0 refused on redial: server %s scores with BLOSUM62 11/2, the coordinator with BLOSUM62 10/2", addr)
	if reason := got.Coverage.Skipped[0].Reason; reason != wantReason {
		t.Fatalf("range 1 skipped because %q, want %q", reason, wantReason)
	}

	wrong.Kill()
	swdual.StartShardServer(t, addr, db, 1, shardCount, opt)
	for deadline := time.Now().Add(30 * time.Second); got.Coverage != nil; time.Sleep(20 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("still partial 30s after a matching shard server came back: %+v", got.Coverage)
		}
		if got, err = s.Search(ctx, queries, swdual.SearchOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	sameReports(t, "recovered", got, want)
}

// TestCoordinatorRefusesMismatchedSiblingOfALiveReplica: each replica
// is judged on its own, so a refused one fails construction even when
// its range has a live, matching sibling that could carry it. A server
// holding another slice, one capped below the coordinator's TopK and one
// scoring with another matrix are each named with the range, the
// address and the mismatch.
func TestCoordinatorRefusesMismatchedSiblingOfALiveReplica(t *testing.T) {
	db, err := swdual.GenerateDatabase("UniProt", 20000)
	if err != nil {
		t.Fatal(err)
	}
	opt := swdual.Options{Pool: "cpu=1", TopK: 5, DialTimeout: 5 * time.Second}
	good := swdual.StartShardServer(t, "127.0.0.1:0", db, 0, 2, opt).Addr().String()
	other := swdual.StartShardServer(t, "127.0.0.1:0", db, 1, 2, opt).Addr().String()
	for _, c := range []struct {
		name   string
		index  int
		server swdual.Options
		want   string
	}{
		{"another slice", 1, opt, "checksum"},
		{"TopK below", 0, swdual.Options{Pool: "cpu=1", TopK: 3}, "TopK 3"},
		{"other scoring", 0, swdual.Options{Pool: "cpu=1", TopK: 5, Matrix: "PAM250"}, "PAM250 10/2"},
	} {
		bad := swdual.StartShardServer(t, "127.0.0.1:0", db, c.index, 2, c.server).Addr().String()
		coord := opt
		coord.ReplicaShards = [][]string{{good, bad}, {other}}
		s, err := swdual.NewSearcher(db, coord)
		if err == nil {
			s.Close()
			t.Fatalf("%s: coordinator accepted a mismatched sibling of a live replica", c.name)
		}
		for _, want := range []string{"shard 0 [0,", bad, c.want} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("%s: refusal %q does not name %q", c.name, err, want)
			}
		}
	}
}

// TestDegradedRidesOverDeadShardServer: on a non-replicated cluster —
// one ReplicaShards address per range — a dead shard server darkens
// exactly its range. The coordinator answers from the survivors,
// labeled with exact Coverage and with hits equal to a search of the
// surviving slice alone; and once the server is back on the same
// address the background redial restores full answers.
func TestDegradedRidesOverDeadShardServer(t *testing.T) {
	const shardCount = 2
	db, err := swdual.GenerateDatabase("UniProt", 20000)
	if err != nil {
		t.Fatal(err)
	}
	queries, err := swdual.GenerateQueries("standard", 400)
	if err != nil {
		t.Fatal(err)
	}
	opt := swdual.Options{Pool: "cpu=2", TopK: 5, DialTimeout: 5 * time.Second}
	want, err := swdual.Search(db, queries, opt)
	if err != nil {
		t.Fatal(err)
	}

	servers := make([]*swdual.ShardServer, shardCount)
	coordOpt := opt
	for i := range servers {
		servers[i] = swdual.StartShardServer(t, "127.0.0.1:0", db, i, shardCount, opt)
		coordOpt.ReplicaShards = append(coordOpt.ReplicaShards, []string{servers[i].Addr().String()})
	}
	s, err := swdual.NewSearcher(db, coordOpt)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	got, err := s.Search(ctx, queries, swdual.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Coverage != nil {
		t.Fatalf("healthy cluster answered partial: %+v", got.Coverage)
	}
	sameReports(t, "healthy", got, want)

	servers[1].Kill()

	part, err := s.Search(ctx, queries, swdual.SearchOptions{})
	if err != nil {
		t.Fatalf("search over a dead shard server failed: %v", err)
	}
	cov := part.Coverage
	if cov == nil || cov.RangesSearched != 1 || cov.RangesTotal != shardCount || len(cov.Skipped) != 1 {
		t.Fatalf("coverage %+v, want 1 of %d ranges searched and one skipped", cov, shardCount)
	}
	sk := cov.Skipped[0]
	if sk.Index != 1 || sk.Lo <= 0 || sk.Hi != db.Len() || !strings.HasPrefix(sk.Reason, "all 1 replicas ") || strings.Contains(sk.Reason, "shard") {
		t.Fatalf("skipped range %+v, want range 1 ending at sequence %d, its reason not naming the range again", sk, db.Len())
	}
	// The survivors are the prefix [0, Lo), so their indices are the
	// whole database's: the answer must be a search of that slice alone.
	var ids, residues []string
	for i := 0; i < sk.Lo; i++ {
		id, r := db.Sequence(i)
		ids, residues = append(ids, id), append(residues, r)
	}
	surviving, err := swdual.FromSequences(ids, residues)
	if err != nil {
		t.Fatal(err)
	}
	if cov.ResiduesSearched != surviving.TotalResidues() || cov.ResiduesTotal != db.TotalResidues() {
		t.Fatalf("coverage prices %d of %d residues, want %d of %d", cov.ResiduesSearched, cov.ResiduesTotal, surviving.TotalResidues(), db.TotalResidues())
	}
	wantPart, err := swdual.Search(surviving, queries, opt)
	if err != nil {
		t.Fatal(err)
	}
	sameReports(t, "survivors", part, wantPart)

	// Same address, new process: the redial loop finds it.
	swdual.StartShardServer(t, servers[1].Addr().String(), db, 1, shardCount, opt)
	deadline := time.Now().Add(30 * time.Second)
	for {
		got, err = s.Search(ctx, queries, swdual.SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if got.Coverage == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("still partial 30s after the shard server came back: %+v", got.Coverage)
		}
		time.Sleep(20 * time.Millisecond)
	}
	sameReports(t, "recovered", got, want)
	if st := s.Stats(); st.Redials < 1 || st.DegradedSearches < 1 {
		t.Fatalf("stats after recovery: %d redials, %d degraded searches, want at least one of each", st.Redials, st.DegradedSearches)
	}
}

// TestNegativeCacheBoundsRefusedEverywhere: a negative CacheSize is
// refused with the same error by every topology's constructor and by
// ServeShard, before anything is dialed or served.
func TestNegativeCacheBoundsRefusedEverywhere(t *testing.T) {
	db, err := swdual.GenerateDatabase("UniProt", 50000)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []struct {
		opt  swdual.Options
		want string
	}{
		{swdual.Options{Cache: true, CacheSize: -1}, "negative CacheSize -1"},
	} {
		for _, topo := range []struct {
			name string
			set  func(*swdual.Options)
		}{
			{"unsharded", func(*swdual.Options) {}},
			{"ReplicaShards", func(o *swdual.Options) { o.ReplicaShards = [][]string{{"127.0.0.1:1"}, {"127.0.0.1:1"}} }},
		} {
			opt := bad.opt
			topo.set(&opt)
			s, err := swdual.NewSearcher(db, opt)
			if err == nil {
				s.Close()
				t.Fatalf("%s accepted %s", topo.name, bad.want)
			}
			if !strings.Contains(err.Error(), bad.want) {
				t.Fatalf("%s: error %q, want it to say %q", topo.name, err, bad.want)
			}
		}
		if err := swdual.ServeShard(nil, db, 0, 2, bad.opt); err == nil || !strings.Contains(err.Error(), bad.want) {
			t.Fatalf("ServeShard: error %v, want it to say %q", err, bad.want)
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := swdual.GenerateDatabase("NotADatabase", 1); err == nil {
		t.Fatal("expected error for unknown preset")
	}
	if _, err := swdual.GenerateQueries("nope", 1); err == nil {
		t.Fatal("expected error for unknown query set")
	}
	if _, err := swdual.Search(nil, nil, swdual.Options{}); err == nil {
		t.Fatal("expected error for nil databases")
	}
}

// TestPoolOptionMatchesDefaultWorkers pins the public adaptive-pool
// surface: a differently sized Options.Pool search returns hits
// identical to the default worker set (the empty Pool), and the
// Searcher's Stats expose every worker's observed (measured) GCUPS
// after the search.
func TestPoolOptionMatchesDefaultWorkers(t *testing.T) {
	db, err := swdual.GenerateDatabase("UniProt", 20000)
	if err != nil {
		t.Fatal(err)
	}
	queries, err := swdual.GenerateQueries("standard", 200)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := swdual.Search(db, queries, swdual.Options{TopK: 5})
	if err != nil {
		t.Fatal(err)
	}

	s, err := swdual.NewSearcher(db, swdual.Options{Pool: "cpu=4", TopK: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rep, err := s.Search(context.Background(), queries, swdual.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for qi := range rep.Results {
		got, want := rep.Results[qi].Hits, ref.Results[qi].Hits
		if len(got) != len(want) {
			t.Fatalf("query %d: %d hits vs %d", qi, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("query %d hit %d: %+v vs %+v", qi, i, got[i], want[i])
			}
		}
	}

	st := s.Stats()
	if len(st.Workers) != 4 {
		t.Fatalf("%d worker rate snapshots, want 4", len(st.Workers))
	}
	var tasks uint64
	for _, w := range st.Workers {
		if w.AdvertisedGCUPS <= 0 || w.ObservedGCUPS <= 0 {
			t.Fatalf("worker %s rates: %+v", w.Name, w)
		}
		tasks += w.Tasks
	}
	if tasks != uint64(queries.Len()) {
		t.Fatalf("workers observed %d tasks, want %d", tasks, queries.Len())
	}
}

// TestOptionErrorsTeachValidValues: malformed Policy and Pool options
// fail with errors that enumerate the accepted values.
func TestOptionErrorsTeachValidValues(t *testing.T) {
	db, err := swdual.GenerateDatabase("UniProt", 50000)
	if err != nil {
		t.Fatal(err)
	}
	queries, err := swdual.GenerateQueries("standard", 400)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := swdual.Search(db, queries, swdual.Options{Policy: "greedy"}); err == nil ||
		!strings.Contains(err.Error(), "self-scheduling") {
		t.Fatalf("bad policy error %v must list the valid policies", err)
	}
	// striped and fine are Table I baselines, not serving backends.
	for _, pool := range []string{"tpu=1", "striped=1", "fine=1"} {
		if _, err := swdual.Search(db, queries, swdual.Options{Pool: pool}); err == nil ||
			!strings.Contains(err.Error(), "valid backends: cpu, gpu") {
			t.Fatalf("bad pool %q: error %v must list the valid backends cpu, gpu", pool, err)
		}
	}
}

// TestCacheOptionMatchesDefault: the public Cache knob must not change
// results — a cached Searcher returns hits identical to an uncached
// one, on the cold miss and on warm repeats, and the Stats counters
// account for every round.
func TestCacheOptionMatchesDefault(t *testing.T) {
	db, err := swdual.GenerateDatabase("UniProt", 30000)
	if err != nil {
		t.Fatal(err)
	}
	queries, err := swdual.GenerateQueries("standard", 300)
	if err != nil {
		t.Fatal(err)
	}
	want, err := swdual.Search(db, queries, swdual.Options{Pool: "cpu=2", TopK: 5})
	if err != nil {
		t.Fatal(err)
	}
	s, err := swdual.NewSearcher(db, swdual.Options{Pool: "cpu=2", TopK: 5, Cache: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for round := 0; round < 3; round++ {
		rep, err := s.Search(context.Background(), queries, swdual.SearchOptions{})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for qi := range rep.Results {
			got, ref := rep.Results[qi].Hits, want.Results[qi].Hits
			if len(got) != len(ref) {
				t.Fatalf("round %d query %d: %d hits vs %d", round, qi, len(got), len(ref))
			}
			for i := range got {
				if got[i] != ref[i] {
					t.Fatalf("round %d query %d hit %d: %+v vs %+v", round, qi, i, got[i], ref[i])
				}
			}
		}
	}
	st := s.Stats()
	if st.CacheMisses != 1 || st.CacheHits != 2 {
		t.Fatalf("misses/hits %d/%d, want 1/2", st.CacheMisses, st.CacheHits)
	}
	if st.Waves != 1 {
		t.Fatalf("waves %d, want 1 (repeats must be served from the cache)", st.Waves)
	}
}

// TestCacheServesConcurrentRepeats: once an answer is warm, any number
// of concurrent identical searches are pure cache hits — no new waves.
func TestCacheServesConcurrentRepeats(t *testing.T) {
	db, err := swdual.GenerateDatabase("UniProt", 30000)
	if err != nil {
		t.Fatal(err)
	}
	queries, err := swdual.GenerateQueries("standard", 300)
	if err != nil {
		t.Fatal(err)
	}
	s, err := swdual.NewSearcher(db, swdual.Options{Pool: "cpu=2", TopK: 5, Cache: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	warm, err := s.Search(context.Background(), queries, swdual.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const callers = 8
	reports := make([]*swdual.Report, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reports[i], errs[i] = s.Search(context.Background(), queries, swdual.SearchOptions{})
		}(i)
	}
	wg.Wait()
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		for qi := range reports[i].Results {
			got, ref := reports[i].Results[qi].Hits, warm.Results[qi].Hits
			if len(got) != len(ref) {
				t.Fatalf("caller %d query %d: %d hits vs %d", i, qi, len(got), len(ref))
			}
			for hi := range got {
				if got[hi] != ref[hi] {
					t.Fatalf("caller %d query %d hit %d: %+v vs %+v", i, qi, hi, got[hi], ref[hi])
				}
			}
		}
	}
	st := s.Stats()
	if st.CacheHits != callers {
		t.Fatalf("cache hits %d, want %d", st.CacheHits, callers)
	}
	if st.Waves != 1 {
		t.Fatalf("waves %d, want 1 (the warm-up wave)", st.Waves)
	}
}

// TestCacheSearchHonorsCancellation: a pre-cancelled context fails fast
// with ctx.Err() even when the answer is sitting warm in the cache.
func TestCacheSearchHonorsCancellation(t *testing.T) {
	db, err := swdual.GenerateDatabase("UniProt", 20000)
	if err != nil {
		t.Fatal(err)
	}
	queries, err := swdual.GenerateQueries("standard", 250)
	if err != nil {
		t.Fatal(err)
	}
	s, err := swdual.NewSearcher(db, swdual.Options{Pool: "cpu=1", TopK: 3, Cache: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Search(context.Background(), queries, swdual.SearchOptions{}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Search(ctx, queries, swdual.SearchOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled search returned %v, want context.Canceled", err)
	}
}

// TestReplicaShardedSearcherMatchesUnsharded is the public replication
// acceptance test: two ranges, each served by two interchangeable
// ServeShard processes, behind a coordinator built with
// Options.ReplicaShards. Hits must be byte-identical to the unsharded
// search, also with a replica down at construction in each range: the
// live sibling carries the range. (Every pattern of live and dead
// replicas at construction is TestStartPatternsFollowOneRule's.)
func TestReplicaShardedSearcherMatchesUnsharded(t *testing.T) {
	const shardCount, replicas = 2, 2
	db, err := swdual.GenerateDatabase("UniProt", 20000)
	if err != nil {
		t.Fatal(err)
	}
	queries, err := swdual.GenerateQueries("standard", 400)
	if err != nil {
		t.Fatal(err)
	}
	opt := swdual.Options{Pool: "cpu=2", TopK: 5, DialTimeout: 5 * time.Second}
	want, err := swdual.Search(db, queries, opt)
	if err != nil {
		t.Fatal(err)
	}

	groups := make([][]string, shardCount)
	for i := 0; i < shardCount; i++ {
		for r := 0; r < replicas; r++ {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			groups[i] = append(groups[i], l.Addr().String())
			go swdual.ServeShard(l, db, i, shardCount, opt)
		}
	}

	coordOpt := opt
	coordOpt.ReplicaShards = groups
	s, err := swdual.NewSearcher(db, coordOpt)
	if err != nil {
		t.Fatal(err)
	}
	if s.Shards() != shardCount {
		t.Fatalf("%d shards, want %d", s.Shards(), shardCount)
	}
	got, err := s.Search(context.Background(), queries, swdual.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for qi := range got.Results {
		a, b := got.Results[qi].Hits, want.Results[qi].Hits
		if len(a) != len(b) {
			t.Fatalf("query %d: %d hits vs %d", qi, len(a), len(b))
		}
		for hi := range a {
			if a[hi] != b[hi] {
				t.Fatalf("query %d hit %d: %+v vs %+v", qi, hi, a[hi], b[hi])
			}
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// An address nobody listens on: reserve a port, then free it.
	deadAddr := func() string {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := l.Addr().String()
		l.Close()
		return addr
	}

	// One dead replica per range is tolerated: the live sibling carries
	// the range while the dead one is re-dialed in the background.
	degraded := coordOpt
	degraded.ReplicaShards = [][]string{
		{deadAddr(), groups[0][0]},
		{groups[1][0], deadAddr()},
	}
	s2, err := swdual.NewSearcher(db, degraded)
	if err != nil {
		t.Fatalf("coordinator refused a degraded-but-covered cluster: %v", err)
	}
	got2, err := s2.Search(context.Background(), queries, swdual.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for qi := range got2.Results {
		a, b := got2.Results[qi].Hits, want.Results[qi].Hits
		if len(a) != len(b) {
			t.Fatalf("degraded query %d: %d hits vs %d", qi, len(a), len(b))
		}
		for hi := range a {
			if a[hi] != b[hi] {
				t.Fatalf("degraded query %d hit %d: %+v vs %+v", qi, hi, a[hi], b[hi])
			}
		}
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
}
