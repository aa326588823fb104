package shard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"

	"swdual/internal/alphabet"
	"swdual/internal/engine"
	"swdual/internal/faultinject"
	"swdual/internal/master"
	"swdual/internal/remote"
	"swdual/internal/replica"
	"swdual/internal/seq"
	"swdual/internal/synth"
)

// The degraded-mode suite: under DegradedPartial a range whose every
// replica is down is ridden over — the survivors answer, the Report
// says exactly what was skipped — while the default policy and every
// non-range failure keep failing the whole search. Faults come from
// the deterministic faultinject schedule, so every scenario (including
// "the range dies mid-stream, while its siblings are already
// searching") reproduces exactly, under -race, at any -count, with no
// sleeps.

// rangeDownErr fabricates the typed error a replica.Set returns when
// its last replica dies, shaped like the real thing so the tests pin
// the marker-interface detection path end to end.
func rangeDownErr(idx int, r Range) error {
	return &replica.ErrRangeUnavailable{
		Range:    fmt.Sprintf("shard %d [%d,%d)", idx, r.Lo, r.Hi),
		Index:    idx,
		Replicas: 2,
		Cause:    "injected: connection lost",
	}
}

// faultedSearcher builds a sharded Searcher whose every backend is a
// faultinject wrapper over a real per-range engine, returning the
// wrappers so tests can script faults and count calls.
func faultedSearcher(t *testing.T, db *seq.Set, shards, topK int) (*Searcher, []*faultinject.Backend) {
	t.Helper()
	ranges := RangesFor(db, shards, Contiguous)
	wrappers := make([]*faultinject.Backend, len(ranges))
	backends := make([]engine.Backend, len(ranges))
	for i, r := range ranges {
		eng, err := engine.New(db.Slice(r.Lo, r.Hi), engine.Config{Pool: master.PoolSpec{CPU: 1, GPU: 1}, TopK: topK})
		if err != nil {
			t.Fatal(err)
		}
		wrappers[i] = faultinject.Wrap(eng)
		backends[i] = wrappers[i]
	}
	s, err := WithBackends(db, Contiguous, ranges, backends, topK)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, wrappers
}

// survivorHits computes the reference answer for a degraded search:
// per-range engines over the surviving slices, merged through the same
// deterministic TopK order the gather uses. A degraded answer must be
// byte-identical to this — the skipped range contributes nothing, and
// nothing else changes.
func survivorHits(t *testing.T, db *seq.Set, ranges []Range, skipped map[int]bool, queries *seq.Set, topK int) []byte {
	t.Helper()
	reps := make([]*master.Report, len(ranges))
	for i, r := range ranges {
		if skipped[i] {
			continue
		}
		eng, err := engine.New(db.Slice(r.Lo, r.Hi), engine.Config{Pool: master.PoolSpec{CPU: 1, GPU: 1}, TopK: topK})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := eng.Search(context.Background(), queries, engine.SearchOptions{TopK: topK})
		eng.Close()
		if err != nil {
			t.Fatal(err)
		}
		reps[i] = rep
	}
	results := make([]master.QueryResult, queries.Len())
	lists := make([][]master.Hit, len(ranges))
	offsets := make([]int, len(ranges))
	for qi := range results {
		for si := range ranges {
			offsets[si] = ranges[si].Lo
			lists[si] = nil
			if reps[si] != nil {
				lists[si] = reps[si].Results[qi].Hits
			}
		}
		results[qi] = master.QueryResult{
			QueryIndex: qi,
			QueryID:    queries.Seqs[qi].ID,
			Hits:       master.MergeTopK(lists, offsets, topK),
		}
	}
	return hitBytes(t, results)
}

// residues sums sequence lengths over [lo, hi).
func residues(db *seq.Set, lo, hi int) int64 {
	var n int64
	for j := lo; j < hi; j++ {
		n += int64(db.Seqs[j].Len())
	}
	return n
}

// TestIdleFaultInjectKeepsShardedByteIdentical is the no-fault
// equivalence proof: a sharded Searcher whose every backend sits
// behind an idle faultinject wrapper — under DegradedPartial, the
// riskier policy — answers byte-identical to an unsharded engine, with
// no Coverage and no degraded count. This is what makes the wrapper
// safe to leave in every chaos topology while asserting full-coverage
// behavior.
func TestIdleFaultInjectKeepsShardedByteIdentical(t *testing.T) {
	const topK = 5
	db := synth.RandomSet(alphabet.Protein, 31, 10, 120, 4001)
	queries := synth.RandomSet(alphabet.Protein, 4, 20, 80, 4002)

	ref, err := engine.New(db, engine.Config{Pool: master.PoolSpec{CPU: 1, GPU: 1}, TopK: topK})
	if err != nil {
		t.Fatal(err)
	}
	want := searchHits(t, ref, queries, 0)
	ref.Close()

	for _, shards := range []int{2, 5} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			s, wrappers := faultedSearcher(t, db, shards, topK)
			s.SetDegradedPolicy(DegradedPartial)
			rep, err := s.Search(context.Background(), queries, engine.SearchOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Coverage != nil {
				t.Fatalf("full-coverage answer carries Coverage %+v", rep.Coverage)
			}
			if got := hitBytes(t, rep.Results); !bytes.Equal(got, want) {
				t.Fatal("sharded hits behind idle fault injectors differ from unsharded engine")
			}
			if st := s.Stats(); st.DegradedSearches != 0 {
				t.Fatalf("DegradedSearches = %d with no faults", st.DegradedSearches)
			}
			for i, w := range wrappers {
				if n := w.Injected(); n != 0 {
					t.Fatalf("wrapper %d injected %d faults with an empty schedule", i, n)
				}
			}
		})
	}
}

// TestDegradedPartialRidesOverDarkRange is the deterministic
// degradation proof: range 1 of 3 is parked at a gate — provably
// mid-call while its siblings search — and then dies with the typed
// every-replica-down error. The search must succeed with hits
// byte-identical to a merge of the survivors, Coverage must name the
// dark range with exact range and residue counts, DegradedSearches
// must tick, and the very next search (the schedule fires once) must
// recover to a full, Coverage-free, byte-identical answer.
func TestDegradedPartialRidesOverDarkRange(t *testing.T) {
	const topK = 4
	db := synth.RandomSet(alphabet.Protein, 30, 10, 120, 4003)
	queries := synth.RandomSet(alphabet.Protein, 3, 20, 80, 4004)

	s, wrappers := faultedSearcher(t, db, 3, topK)
	s.SetDegradedPolicy(DegradedPartial)
	ranges := s.ranges
	const dark = 1
	gate := faultinject.NewGate()
	wrappers[dark].SetRules(faultinject.Rule{
		Op: faultinject.OpSearch, Count: 1,
		Fault: faultinject.Fault{Gate: gate, Err: rangeDownErr(dark, ranges[dark])},
	})

	type answer struct {
		rep *master.Report
		err error
	}
	done := make(chan answer, 1)
	go func() {
		rep, err := s.Search(context.Background(), queries, engine.SearchOptions{})
		done <- answer{rep, err}
	}()
	// The dark range is provably inside its Search call — mid-stream,
	// not failed-before-start — when the gate announces it. Only then
	// does the test let it die.
	<-gate.Entered()
	gate.Release()
	a := <-done
	if a.err != nil {
		t.Fatalf("degraded search failed: %v", a.err)
	}

	cov := a.rep.Coverage
	if cov == nil {
		t.Fatal("degraded answer carries no Coverage")
	}
	if cov.RangesSearched != 2 || cov.RangesTotal != 3 {
		t.Fatalf("ranges %d/%d, want 2/3", cov.RangesSearched, cov.RangesTotal)
	}
	total := residues(db, 0, db.Len())
	darkRes := residues(db, ranges[dark].Lo, ranges[dark].Hi)
	if cov.ResiduesTotal != total || cov.ResiduesSearched != total-darkRes {
		t.Fatalf("residues %d/%d, want %d/%d", cov.ResiduesSearched, cov.ResiduesTotal, total-darkRes, total)
	}
	if f := cov.Fraction(); f <= 0 || f >= 1 {
		t.Fatalf("fraction %v, want strictly inside (0,1)", f)
	}
	if len(cov.Skipped) != 1 {
		t.Fatalf("%d skipped ranges, want 1: %+v", len(cov.Skipped), cov.Skipped)
	}
	sk := cov.Skipped[0]
	if sk.Index != dark || sk.Lo != ranges[dark].Lo || sk.Hi != ranges[dark].Hi {
		t.Fatalf("skipped range %+v, want index %d [%d,%d)", sk, dark, ranges[dark].Lo, ranges[dark].Hi)
	}
	if !strings.Contains(sk.Reason, "injected: connection lost") {
		t.Fatalf("skip reason %q does not carry the cause", sk.Reason)
	}

	want := survivorHits(t, db, ranges, map[int]bool{dark: true}, queries, topK)
	if got := hitBytes(t, a.rep.Results); !bytes.Equal(got, want) {
		t.Fatal("degraded hits differ from a merge of the surviving ranges")
	}
	if st := s.Stats(); st.DegradedSearches != 1 {
		t.Fatalf("DegradedSearches = %d, want 1", st.DegradedSearches)
	}

	// Recovery: the rule fired once, so the next search sees every
	// range and must be a full answer again.
	ref, err := engine.New(db, engine.Config{Pool: master.PoolSpec{CPU: 1, GPU: 1}, TopK: topK})
	if err != nil {
		t.Fatal(err)
	}
	full := searchHits(t, ref, queries, 0)
	ref.Close()
	rep, err := s.Search(context.Background(), queries, engine.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Coverage != nil {
		t.Fatalf("recovered answer still carries Coverage %+v", rep.Coverage)
	}
	if got := hitBytes(t, rep.Results); !bytes.Equal(got, full) {
		t.Fatal("recovered hits differ from unsharded engine")
	}
	if st := s.Stats(); st.DegradedSearches != 1 {
		t.Fatalf("DegradedSearches = %d after recovery, want still 1", st.DegradedSearches)
	}
}

// TestDegradedAnswerNeverEntersCache pins the cache discipline: a
// degraded answer must not be served to a later caller who could get a
// full one. Search 1 is degraded (and uncached), search 2 re-scatters
// and gets the full answer (a second miss), search 3 is the first
// cache hit — of the full answer — and never reaches a shard.
func TestDegradedAnswerNeverEntersCache(t *testing.T) {
	const topK = 3
	db := synth.RandomSet(alphabet.Protein, 24, 10, 100, 4005)
	queries := synth.RandomSet(alphabet.Protein, 3, 20, 60, 4006)

	s, wrappers := faultedSearcher(t, db, 2, topK)
	s.SetDegradedPolicy(DegradedPartial)
	s.EnableCache(0, 0)
	ranges := s.ranges
	wrappers[1].SetRules(faultinject.Rule{
		Op: faultinject.OpSearch, Count: 1,
		Fault: faultinject.Fault{Err: rangeDownErr(1, ranges[1])},
	})

	ref, err := engine.New(db, engine.Config{Pool: master.PoolSpec{CPU: 1, GPU: 1}, TopK: topK})
	if err != nil {
		t.Fatal(err)
	}
	full := searchHits(t, ref, queries, 0)
	ref.Close()

	rep1, err := s.Search(context.Background(), queries, engine.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep1.Coverage == nil {
		t.Fatal("search 1 should have been degraded")
	}
	rep2, err := s.Search(context.Background(), queries, engine.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Coverage != nil {
		t.Fatalf("search 2 answered from the degraded search 1: %+v", rep2.Coverage)
	}
	if got := hitBytes(t, rep2.Results); !bytes.Equal(got, full) {
		t.Fatal("search 2 hits differ from unsharded engine")
	}
	rep3, err := s.Search(context.Background(), queries, engine.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep3.Coverage != nil {
		t.Fatal("cached full answer grew Coverage")
	}
	if got := hitBytes(t, rep3.Results); !bytes.Equal(got, full) {
		t.Fatal("cached hits differ from unsharded engine")
	}

	st := s.Stats()
	if st.CacheMisses != 2 || st.CacheHits != 1 {
		t.Fatalf("cache misses/hits %d/%d, want 2/1 (the degraded answer must be a non-event for the cache)", st.CacheMisses, st.CacheHits)
	}
	if st.DegradedSearches != 1 {
		t.Fatalf("DegradedSearches = %d, want 1", st.DegradedSearches)
	}
	// The scatter proof: searches 1 and 2 reached every shard, search 3
	// reached none.
	for i, w := range wrappers {
		if n := w.Calls(faultinject.OpSearch); n != 2 {
			t.Fatalf("shard %d saw %d searches, want 2", i, n)
		}
	}
}

// TestPartialAnswerIsRefusedOnTheWire serves a degraded coordinator
// over the wire protocol: a SearchResult is always a full answer, so a
// remote client asking while a range is dark gets the partial-answer
// ReqError — never the survivors' hits passed off as complete — while
// the connection stays up and the remote Stats still count the
// degraded search. Once the range recovers, a full answer arrives on
// the same connection.
func TestPartialAnswerIsRefusedOnTheWire(t *testing.T) {
	const topK = 3
	db := synth.RandomSet(alphabet.Protein, 22, 10, 100, 4013)
	queries := synth.RandomSet(alphabet.Protein, 2, 20, 60, 4014)

	s, wrappers := faultedSearcher(t, db, 2, topK)
	s.SetDegradedPolicy(DegradedPartial)
	wrappers[0].SetRules(faultinject.Rule{
		Op: faultinject.OpSearch, Count: 1,
		Fault: faultinject.Fault{Err: rangeDownErr(0, s.ranges[0])},
	})

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go engine.Serve(l, s)
	wb, err := remote.DialTimeout(l.Addr().String(), db.Checksum(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer wb.Close()

	rep, err := wb.Search(context.Background(), queries, engine.SearchOptions{TopK: topK})
	if err == nil {
		t.Fatalf("a degraded answer crossed the wire as a full one: %+v", rep)
	}
	if !strings.Contains(err.Error(), "a partial answer cannot cross the wire") {
		t.Fatalf("degraded search over the wire: %v, want the partial-answer refusal", err)
	}
	if errors.Is(err, remote.ErrConnectionLost) {
		t.Fatalf("the refusal took the connection down: %v", err)
	}
	if st := wb.Stats(); st.DegradedSearches != 1 {
		t.Fatalf("remote Stats DegradedSearches = %d, want 1", st.DegradedSearches)
	}

	// Recovery over the same connection: a full answer.
	ref, err := engine.New(db, engine.Config{Pool: master.PoolSpec{CPU: 1, GPU: 1}, TopK: topK})
	if err != nil {
		t.Fatal(err)
	}
	full := searchHits(t, ref, queries, 0)
	ref.Close()
	rep, err = wb.Search(context.Background(), queries, engine.SearchOptions{TopK: topK})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Coverage != nil {
		t.Fatalf("recovered remote answer still carries Coverage %+v", rep.Coverage)
	}
	if got := hitBytes(t, rep.Results); !bytes.Equal(got, full) {
		t.Fatal("recovered remote hits differ from unsharded engine")
	}
}

// TestDegradedFailKeepsFailing pins the default policy: the same typed
// error that DegradedPartial rides over must fail the whole search,
// naming the shard, detectable with errors.As, and never claiming the
// coordinator is closed.
func TestDegradedFailKeepsFailing(t *testing.T) {
	const topK = 3
	db := synth.RandomSet(alphabet.Protein, 18, 10, 100, 4009)
	queries := synth.RandomSet(alphabet.Protein, 2, 20, 60, 4010)

	s, wrappers := faultedSearcher(t, db, 2, topK)
	if s.DegradedPolicy() != DegradedFail {
		t.Fatalf("default policy %v, want DegradedFail", s.DegradedPolicy())
	}
	ranges := s.ranges
	wrappers[1].SetRules(faultinject.Rule{
		Op: faultinject.OpSearch, Count: 1,
		Fault: faultinject.Fault{Err: rangeDownErr(1, ranges[1])},
	})
	_, err := s.Search(context.Background(), queries, engine.SearchOptions{})
	if err == nil {
		t.Fatal("DegradedFail search succeeded with a dark range")
	}
	var re *replica.ErrRangeUnavailable
	if !errors.As(err, &re) {
		t.Fatalf("error is not a replica.ErrRangeUnavailable: %v", err)
	}
	if re.Index != 1 || re.Replicas != 2 {
		t.Fatalf("typed error %+v", re)
	}
	if !strings.Contains(err.Error(), "shard 1") {
		t.Fatalf("error does not name the shard: %v", err)
	}
	if errors.Is(err, engine.ErrClosed) {
		t.Fatalf("dark-range error claims the coordinator is closed: %v", err)
	}
	if st := s.Stats(); st.DegradedSearches != 0 {
		t.Fatalf("DegradedSearches = %d under DegradedFail", st.DegradedSearches)
	}
}

// TestEveryRangeDarkFailsEvenPartial: with nothing to answer from,
// DegradedPartial has nothing to degrade to — the search fails with
// the typed error naming the first dark range, and no phantom
// zero-coverage answer is produced.
func TestEveryRangeDarkFailsEvenPartial(t *testing.T) {
	const topK = 3
	db := synth.RandomSet(alphabet.Protein, 16, 10, 100, 4011)
	queries := synth.RandomSet(alphabet.Protein, 2, 20, 60, 4012)

	s, wrappers := faultedSearcher(t, db, 2, topK)
	s.SetDegradedPolicy(DegradedPartial)
	ranges := s.ranges
	for i, w := range wrappers {
		w.SetRules(faultinject.Rule{
			Op: faultinject.OpSearch, Count: 1,
			Fault: faultinject.Fault{Err: rangeDownErr(i, ranges[i])},
		})
	}
	_, err := s.Search(context.Background(), queries, engine.SearchOptions{})
	if err == nil {
		t.Fatal("search succeeded with every range dark")
	}
	var re *replica.ErrRangeUnavailable
	if !errors.As(err, &re) {
		t.Fatalf("error is not a replica.ErrRangeUnavailable: %v", err)
	}
	if !strings.Contains(err.Error(), "shard 0") {
		t.Fatalf("error does not name the first dark shard: %v", err)
	}
	if st := s.Stats(); st.DegradedSearches != 0 {
		t.Fatalf("DegradedSearches = %d for a failed search", st.DegradedSearches)
	}
}
