package resultcache

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"swdual/internal/alphabet"
	"swdual/internal/master"
	"swdual/internal/seq"
)

// set builds a query set from encoded residue strings (codes 0..19).
func set(t *testing.T, residues ...[]byte) *seq.Set {
	t.Helper()
	s := seq.NewSet(alphabet.Protein)
	for i, r := range residues {
		s.AddEncoded(fmt.Sprintf("q%d", i), "", r)
	}
	return s
}

func hitsFor(n int) [][]master.Hit {
	out := make([][]master.Hit, n)
	for i := range out {
		out[i] = []master.Hit{{SeqIndex: i, SeqID: fmt.Sprintf("s%d", i), Score: 100 - i}}
	}
	return out
}

// TestKeyDistinguishes proves the fingerprint separates every dimension
// of the cache key — database, TopK, query content, query count — and
// that length prefixing prevents concatenation aliasing: the query sets
// {AB, C} and {A, BC} concatenate identically but must never collide.
func TestKeyDistinguishes(t *testing.T) {
	base := set(t, []byte{1, 2}, []byte{3})
	keys := map[string]string{}
	add := func(label, k string) {
		if prev, ok := keys[k]; ok {
			t.Fatalf("%s collides with %s", label, prev)
		}
		keys[k] = label
	}
	add("base", Key(7, 5, base))
	add("other checksum", Key(8, 5, base))
	add("other topk", Key(7, 6, base))
	add("split shifted", Key(7, 5, set(t, []byte{1}, []byte{2, 3})))
	add("one query", Key(7, 5, set(t, []byte{1, 2, 3})))
	add("content", Key(7, 5, set(t, []byte{1, 2}, []byte{4})))
	add("extra empty query", Key(7, 5, set(t, []byte{1, 2}, []byte{3}, nil)))
	if got := Key(7, 5, set(t, []byte{1, 2}, []byte{3})); got != Key(7, 5, base) {
		t.Fatal("equal fingerprints must produce equal keys (IDs are excluded)")
	}
}

// TestCacheLRUBound fills past MaxEntries and checks the bound holds,
// cold entries evict in LRU order, and a touched entry survives.
func TestCacheLRUBound(t *testing.T) {
	c := New(Config{MaxEntries: 3})
	for i := 0; i < 3; i++ {
		c.Put(fmt.Sprintf("k%d", i), hitsFor(1))
	}
	// Touch k0: it becomes the most recently used, so the next two
	// inserts must evict k1 then k2, never k0.
	if _, ok := c.Get("k0"); !ok {
		t.Fatal("k0 missing before any eviction")
	}
	c.Put("k3", hitsFor(1))
	c.Put("k4", hitsFor(1))
	if n := c.Stats().Entries; n != 3 {
		t.Fatalf("Len %d after overfill, want 3", n)
	}
	if _, ok := c.Get("k0"); !ok {
		t.Fatal("recently used k0 was evicted")
	}
	for _, cold := range []string{"k1", "k2"} {
		if _, ok := c.Get(cold); ok {
			t.Fatalf("LRU %s survived two evictions", cold)
		}
	}
	st := c.Stats()
	if st.Evictions != 2 {
		t.Fatalf("evictions %d, want 2", st.Evictions)
	}
	if st.Entries != 3 {
		t.Fatalf("entries %d, want 3", st.Entries)
	}
	if st.Hits != 2 || st.Misses != 2 {
		t.Fatalf("hits/misses %d/%d, want 2/2", st.Hits, st.Misses)
	}
}

// TestCacheByteBudget checks the byte bound evicts independently of the
// entry bound and that one oversized answer is refused rather than
// wiping the cache to make room for it.
func TestCacheByteBudget(t *testing.T) {
	small := hitsFor(1)
	perEntry := hitsSize("k0", small)
	c := New(Config{MaxEntries: 100, MaxBytes: 2 * perEntry})
	c.Put("k0", small)
	c.Put("k1", small)
	c.Put("k2", small) // must evict k0 on bytes alone
	if n := c.Stats().Entries; n != 2 {
		t.Fatalf("Len %d under byte budget for 2, want 2", n)
	}
	if _, ok := c.Get("k0"); ok {
		t.Fatal("byte budget did not evict the LRU entry")
	}
	if st := c.Stats(); st.Bytes > 2*perEntry {
		t.Fatalf("accounted bytes %d exceed budget %d", st.Bytes, 2*perEntry)
	}
	c.Put("huge", hitsFor(1000)) // alone above the budget: not stored
	if _, ok := c.Get("huge"); ok {
		t.Fatal("oversized answer was cached")
	}
	if n := c.Stats().Entries; n != 2 {
		t.Fatalf("oversized Put disturbed the cache: Len %d, want 2", n)
	}
}

// TestCacheDefensiveCopies mutates hit slices on both sides of the
// boundary and checks the cached value never changes.
func TestCacheDefensiveCopies(t *testing.T) {
	c := New(Config{})
	in := hitsFor(2)
	c.Put("k", in)
	in[0][0].Score = -1 // caller keeps mutating its own slices after Put
	got1, ok := c.Get("k")
	if !ok {
		t.Fatal("miss after Put")
	}
	if got1[0][0].Score != 100 {
		t.Fatalf("Put aliased caller memory: score %d", got1[0][0].Score)
	}
	got1[1][0].SeqID = "corrupted" // caller mutates a returned slice
	got2, _ := c.Get("k")
	if got2[1][0].SeqID != "s1" {
		t.Fatalf("Get returned aliased cache memory: %q", got2[1][0].SeqID)
	}
}

// TestReport assembles a report from cached hits and checks identity
// comes from the request (IDs, indices), not from the cache, and that
// the report claims no work.
func TestReport(t *testing.T) {
	queries := set(t, []byte{1, 2}, []byte{3, 4})
	hits := hitsFor(2)
	rep := Report(queries, hits)
	if len(rep.Results) != 2 {
		t.Fatalf("%d results", len(rep.Results))
	}
	for i, r := range rep.Results {
		if r.QueryIndex != i || r.QueryID != fmt.Sprintf("q%d", i) {
			t.Fatalf("result %d identity: %+v", i, r)
		}
		if len(r.Hits) != 1 || r.Hits[0] != hits[i][0] {
			t.Fatalf("result %d hits: %+v", i, r.Hits)
		}
	}
	if rep.Cells != 0 || rep.Wall != 0 || rep.Schedule != nil {
		t.Fatalf("a cached answer did no work, yet reports %d cells, %v wall, schedule %v", rep.Cells, rep.Wall, rep.Schedule)
	}
}

// TestDo walks the cached search through its five outcomes: a hit never
// runs the search, a miss runs it and stores the answer, and an error,
// a partial answer or a dead ctx leaves the cache as it was.
func TestDo(t *testing.T) {
	queries := set(t, []byte{1, 2}, []byte{3, 4})
	full := func() (*master.Report, error) { return Report(queries, hitsFor(2)), nil }
	boom := errors.New("boom")
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name    string
		warm    bool // key cached before Do
		ctx     context.Context
		run     func() (*master.Report, error)
		wantRun bool
		wantErr error
		stored  bool // key cached after Do
	}{
		{name: "hit", warm: true, ctx: context.Background(), run: full, stored: true},
		{name: "miss then Put", ctx: context.Background(), run: full, wantRun: true, stored: true},
		{name: "error not stored", ctx: context.Background(), wantRun: true, wantErr: boom,
			run: func() (*master.Report, error) { return nil, boom }},
		{name: "Coverage not stored", ctx: context.Background(), wantRun: true,
			run: func() (*master.Report, error) {
				rep, _ := full()
				rep.Coverage = &master.Coverage{RangesSearched: 1, RangesTotal: 2}
				return rep, nil
			}},
		{name: "dead ctx", warm: true, ctx: canceled, run: full, wantErr: context.Canceled, stored: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := New(Config{})
			key := Key(1, 5, queries)
			if tc.warm {
				c.Put(key, hitsFor(2))
			}
			ran := false
			rep, err := Do(tc.ctx, c, key, queries, func() (*master.Report, error) {
				ran = true
				return tc.run()
			})
			if ran != tc.wantRun {
				t.Fatalf("search ran = %v, want %v", ran, tc.wantRun)
			}
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("err %v, want %v", err, tc.wantErr)
			}
			if err == nil {
				if len(rep.Results) != 2 || rep.Results[1].QueryID != "q1" || rep.Results[1].Hits[0] != hitsFor(2)[1][0] {
					t.Fatalf("report %+v", rep.Results)
				}
			}
			if _, ok := c.Get(key); ok != tc.stored {
				t.Fatalf("cached after Do = %v, want %v", ok, tc.stored)
			}
		})
	}
}
