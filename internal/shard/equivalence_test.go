package shard

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"strings"
	"sync"
	"testing"

	"swdual/internal/alphabet"
	"swdual/internal/engine"
	"swdual/internal/master"
	"swdual/internal/seq"
	"swdual/internal/synth"
)

// The equivalence suite: a sharded Searcher must be indistinguishable —
// byte for byte — from one engine.Searcher over the whole database, for
// every shard count 1..8, both split strategies, and databases of
// awkward sizes (empty, single sequence, fewer sequences than shards,
// prime-sized), including TopK ties that straddle shard boundaries.

// hitBytes serializes per-query hits so "byte-identical" is literal.
func hitBytes(t *testing.T, results []master.QueryResult) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, res := range results {
		binary.Write(&buf, binary.LittleEndian, int64(res.QueryIndex))
		buf.WriteString(res.QueryID)
		binary.Write(&buf, binary.LittleEndian, int64(len(res.Hits)))
		for _, h := range res.Hits {
			binary.Write(&buf, binary.LittleEndian, int64(h.SeqIndex))
			binary.Write(&buf, binary.LittleEndian, int64(h.Score))
			buf.WriteString(h.SeqID)
		}
	}
	return buf.Bytes()
}

func searchHits(t *testing.T, s interface {
	Search(context.Context, *seq.Set, engine.SearchOptions) (*master.Report, error)
}, queries *seq.Set, topK int) []byte {
	t.Helper()
	rep, err := s.Search(context.Background(), queries, engine.SearchOptions{TopK: topK})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != queries.Len() {
		t.Fatalf("%d results for %d queries", len(rep.Results), queries.Len())
	}
	return hitBytes(t, rep.Results)
}

// localSharded assembles the scatter/gather over in-process engines:
// RangesFor, one engine.Searcher per slice, WithBackends — what a
// cluster coordinator builds, minus the network. Tests that need the
// coordinator cache or a degradation policy set them on the result.
func localSharded(t *testing.T, db *seq.Set, shards int, strategy Strategy, ecfg engine.Config) *Searcher {
	t.Helper()
	ranges := RangesFor(db, shards, strategy)
	backends := make([]engine.Backend, 0, len(ranges))
	fail := func(err error) {
		for _, b := range backends {
			b.Close()
		}
		t.Fatal(err)
	}
	for _, r := range ranges {
		eng, err := engine.New(db.Slice(r.Lo, r.Hi), ecfg)
		if err != nil {
			fail(err)
		}
		backends = append(backends, eng)
	}
	s, err := WithBackends(db, strategy, ranges, backends, ecfg.TopK)
	if err != nil {
		fail(err)
	}
	return s
}

func TestShardedMatchesUnshardedAcrossSizesAndStrategies(t *testing.T) {
	const topK = 5
	queries := synth.RandomSet(alphabet.Protein, 3, 20, 90, 1001)
	ecfg := engine.Config{Pool: master.PoolSpec{CPU: 1, GPU: 1}, TopK: topK}
	// 0: empty; 1: single; 3, 7: fewer sequences than high shard counts;
	// 13, 31: prime-sized (never divide evenly); 50: a few per shard.
	for _, dbSize := range []int{0, 1, 3, 7, 13, 31, 50} {
		db := synth.RandomSet(alphabet.Protein, dbSize, 10, 120, int64(2000+dbSize))
		ref, err := engine.New(db, ecfg)
		if err != nil {
			t.Fatal(err)
		}
		want := searchHits(t, ref, queries, 0)
		ref.Close()
		for _, strategy := range []Strategy{Contiguous, BalancedResidues} {
			for shards := 1; shards <= 8; shards++ {
				t.Run(fmt.Sprintf("db=%d/%v/shards=%d", dbSize, strategy, shards), func(t *testing.T) {
					s := localSharded(t, db, shards, strategy, ecfg)
					defer s.Close()
					if got := s.Shards(); got != shards {
						t.Fatalf("built %d shards, want %d", got, shards)
					}
					if got := searchHits(t, s, queries, 0); !bytes.Equal(got, want) {
						t.Fatalf("sharded hits differ from unsharded engine")
					}
					if s.Checksum() != s.Stats().DBChecksum {
						t.Fatalf("checksum disagrees with stats")
					}
				})
			}
		}
	}
}

// TestShardedChecksumMatchesUnsharded: a caller verifying the
// database fingerprint must not be able to tell a sharded backend from
// an unsharded one.
func TestShardedChecksumMatchesUnsharded(t *testing.T) {
	db := synth.RandomSet(alphabet.Protein, 23, 10, 100, 77)
	ref, err := engine.New(db, engine.Config{Pool: master.PoolSpec{CPU: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	s := localSharded(t, db, 4, BalancedResidues, engine.Config{Pool: master.PoolSpec{CPU: 1}})
	defer s.Close()
	if s.Checksum() != ref.Checksum() {
		t.Fatalf("sharded checksum %08x != unsharded %08x", s.Checksum(), ref.Checksum())
	}
}

// TestTopKTieBreakAcrossShardBoundaries builds a database of identical
// sequences — every hit ties on score — split so the ties straddle every
// shard boundary. The gathered TopK must come back in ascending global
// index order, exactly as the unsharded TopHits pass reports it.
func TestTopKTieBreakAcrossShardBoundaries(t *testing.T) {
	const n, topK = 12, 8
	db := seq.NewSet(alphabet.Protein)
	res := strings.Repeat("MKWVTFISLL", 3)
	for i := 0; i < n; i++ {
		if err := db.Add(fmt.Sprintf("dup-%02d", i), "", []byte(res)); err != nil {
			t.Fatal(err)
		}
	}
	queries := seq.NewSet(alphabet.Protein)
	if err := queries.Add("q", "", []byte(res)); err != nil {
		t.Fatal(err)
	}
	ecfg := engine.Config{Pool: master.PoolSpec{CPU: 1, GPU: 1}, TopK: topK}
	ref, err := engine.New(db, ecfg)
	if err != nil {
		t.Fatal(err)
	}
	want := searchHits(t, ref, queries, 0)
	ref.Close()
	for _, strategy := range []Strategy{Contiguous, BalancedResidues} {
		for _, shards := range []int{2, 3, 5, 7} {
			s := localSharded(t, db, shards, strategy, ecfg)
			rep, err := s.Search(context.Background(), queries, engine.SearchOptions{})
			if err != nil {
				t.Fatal(err)
			}
			hits := rep.Results[0].Hits
			if len(hits) != topK {
				t.Fatalf("%v/%d shards: %d hits, want %d", strategy, shards, len(hits), topK)
			}
			for i, h := range hits {
				if h.SeqIndex != i {
					t.Fatalf("%v/%d shards: tie rank %d went to global seq %d (id %s), want %d",
						strategy, shards, i, h.SeqIndex, h.SeqID, i)
				}
				if h.Score != hits[0].Score {
					t.Fatalf("%v/%d shards: tie scores differ: %d vs %d", strategy, shards, h.Score, hits[0].Score)
				}
			}
			if got := hitBytes(t, rep.Results); !bytes.Equal(got, want) {
				t.Fatalf("%v/%d shards: tie-broken hits differ from unsharded engine", strategy, shards)
			}
			s.Close()
		}
	}
}

// TestShardedTopKOption: per-request TopK is honored below the config
// cap and clamped above it, same as the unsharded engine.
func TestShardedTopKOption(t *testing.T) {
	db := synth.RandomSet(alphabet.Protein, 20, 10, 80, 88)
	queries := synth.RandomSet(alphabet.Protein, 2, 20, 60, 89)
	s := localSharded(t, db, 3, Contiguous, engine.Config{Pool: master.PoolSpec{CPU: 1}, TopK: 6})
	defer s.Close()
	rep, err := s.Search(context.Background(), queries, engine.SearchOptions{TopK: 2})
	if err != nil {
		t.Fatal(err)
	}
	for qi, r := range rep.Results {
		if len(r.Hits) != 2 {
			t.Fatalf("query %d: %d hits, want 2", qi, len(r.Hits))
		}
	}
	rep, err = s.Search(context.Background(), queries, engine.SearchOptions{TopK: 99})
	if err != nil {
		t.Fatal(err)
	}
	for qi, r := range rep.Results {
		if len(r.Hits) > 6 {
			t.Fatalf("query %d: %d hits exceed config TopK", qi, len(r.Hits))
		}
	}
}

// TestShardedAccountingSpansShards: cell counts must sum to the whole
// database volume and the facade's counters must span every shard.
func TestShardedAccountingSpansShards(t *testing.T) {
	db := synth.RandomSet(alphabet.Protein, 24, 10, 100, 90)
	queries := synth.RandomSet(alphabet.Protein, 2, 30, 60, 91)
	s := localSharded(t, db, 4, Contiguous, engine.Config{Pool: master.PoolSpec{CPU: 1}, TopK: 3})
	defer s.Close()
	rep, err := s.Search(context.Background(), queries, engine.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var wantCells int64
	for i := range queries.Seqs {
		wantCells += int64(queries.Seqs[i].Len()) * db.TotalResidues()
	}
	if rep.Cells != wantCells {
		t.Fatalf("cells %d, want %d (whole database volume)", rep.Cells, wantCells)
	}
	st := s.Stats()
	if st.Prepared != s.Shards() {
		t.Fatalf("prepared %d, want one pass per shard (%d)", st.Prepared, s.Shards())
	}
	if st.Searches != 1 || st.Queries != uint64(queries.Len()) {
		t.Fatalf("facade counters: %+v", st)
	}
	for si, b := range s.backends {
		if st := b.Stats(); st.Searches != 1 || st.Prepared != 1 {
			t.Fatalf("shard %d: %d searches, %d preparation passes; want the one search fanned out to every shard", si, st.Searches, st.Prepared)
		}
	}
}

// TestShardedConcurrentMatchesUnsharded extends the equivalence suite to
// concurrent clients: shard dispatchers that coalesce several callers
// into shared waves, round after round, must gather hits byte-identical
// to one unsharded engine serving the same callers.
func TestShardedConcurrentMatchesUnsharded(t *testing.T) {
	const topK = 5
	db := synth.RandomSet(alphabet.Protein, 40, 10, 120, 2032)
	cfg := engine.Config{Pool: master.PoolSpec{CPU: 1, GPU: 1}, TopK: topK}
	sharded := localSharded(t, db, 3, BalancedResidues, cfg)
	defer sharded.Close()
	whole, err := engine.New(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer whole.Close()
	const callers = 4
	for round := 0; round < 2; round++ {
		var wg sync.WaitGroup
		gots := make([]*master.Report, callers)
		wants := make([]*master.Report, callers)
		errs := make([]error, 2*callers)
		for i := 0; i < callers; i++ {
			queries := synth.RandomSet(alphabet.Protein, 2, 20, 90, int64(3000+10*round+i))
			wg.Add(2)
			go func(i int) {
				defer wg.Done()
				gots[i], errs[2*i] = sharded.Search(context.Background(), queries, engine.SearchOptions{})
			}(i)
			go func(i int) {
				defer wg.Done()
				wants[i], errs[2*i+1] = whole.Search(context.Background(), queries, engine.SearchOptions{})
			}(i)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("round %d caller %d: %v", round, i, err)
			}
		}
		for i := range gots {
			if !bytes.Equal(hitBytes(t, gots[i].Results), hitBytes(t, wants[i].Results)) {
				t.Fatalf("round %d caller %d: sharded hits differ from unsharded", round, i)
			}
		}
	}
}

// TestShardedMixedPoolMatchesUnsharded extends the equivalence suite to
// heterogeneous pools and adaptive rates: shards whose engines run a
// mixed worker set (two inter-sequence CPUs and a GPU) with live
// measured rates must return hits byte-identical to the cpu=1,gpu=1
// unsharded engine, and the facade's Stats must surface
// every worker's observed rate under its shard-qualified name.
func TestShardedMixedPoolMatchesUnsharded(t *testing.T) {
	const topK = 5
	db := synth.RandomSet(alphabet.Protein, 31, 10, 120, 2031)
	queries := synth.RandomSet(alphabet.Protein, 3, 20, 90, 1002)

	ref, err := engine.New(db, engine.Config{Pool: master.PoolSpec{CPU: 1, GPU: 1}, TopK: topK})
	if err != nil {
		t.Fatal(err)
	}
	want := searchHits(t, ref, queries, 0)
	ref.Close()

	spec := master.PoolSpec{CPU: 2, GPU: 1}
	for _, shards := range []int{1, 3} {
		s := localSharded(t, db, shards, Contiguous, engine.Config{Pool: spec, TopK: topK})
		// Two rounds so wave 2 schedules with rates observed in wave 1.
		for round := 0; round < 2; round++ {
			if got := searchHits(t, s, queries, 0); !bytes.Equal(got, want) {
				t.Fatalf("%d mixed-pool shards, round %d: hits differ from unsharded", shards, round)
			}
		}
		st := s.Stats()
		if len(st.Workers) != shards*spec.Total() {
			t.Fatalf("%d worker rates for %d shards of %d workers", len(st.Workers), shards, spec.Total())
		}
		var observed uint64
		for _, w := range st.Workers {
			if !strings.HasPrefix(w.Name, "shard") {
				t.Fatalf("worker rate %q not shard-qualified", w.Name)
			}
			observed += w.Tasks
		}
		if want := uint64(2 * queries.Len() * shards); observed != want {
			t.Fatalf("workers observed %d tasks, want %d", observed, want)
		}
		s.Close()
	}
}
