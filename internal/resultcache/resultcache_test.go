package resultcache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

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

// TestFlightCollapse drives the leader/follower protocol directly: one
// leader, followers that share its answer, error propagation without
// stickiness, and follower-only cancellation.
func TestFlightCollapse(t *testing.T) {
	f := NewFlight()
	call, leader := f.Join("k")
	if !leader {
		t.Fatal("first Join must lead")
	}
	if _, again := f.Join("k"); again {
		t.Fatal("second Join of an in-flight key must follow")
	}

	// A follower with a canceled context abandons only itself.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := call.Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled follower: %v", err)
	}

	done := make(chan error, 1)
	go func() {
		hits, err := call.Wait(context.Background())
		if err == nil && len(hits) != 2 {
			err = fmt.Errorf("follower got %d hit lists", len(hits))
		}
		done <- err
	}()
	f.Finish("k", call, hitsFor(2), nil)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("follower never woke")
	}

	// The key retired with the call: the next Join leads again, and a
	// leader error reaches its followers but is gone once finished.
	call2, leader2 := f.Join("k")
	if !leader2 {
		t.Fatal("Join after Finish must lead")
	}
	boom := errors.New("boom")
	f.Finish("k", call2, nil, boom)
	if _, err := call2.Wait(context.Background()); !errors.Is(err, boom) {
		t.Fatalf("follower error: %v", err)
	}
	if _, leader3 := f.Join("k"); !leader3 {
		t.Fatal("error must not be sticky: next Join must lead")
	}
}

// TestReport assembles a report from cached hits and checks identity
// comes from the request (IDs, indices), not from the cache.
func TestReport(t *testing.T) {
	queries := set(t, []byte{1, 2}, []byte{3, 4})
	hits := hitsFor(2)
	rep := Report(master.PolicyDualApprox, queries, hits)
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
	if rep.Policy != master.PolicyDualApprox {
		t.Fatalf("policy %v", rep.Policy)
	}
}

// TestFlightFollowerCancelRace stress-tests the window between the
// leader's Finish and a follower's Wait wakeup when the follower's
// context is cancelled at the same instant. The follower must observe
// exactly one of two outcomes — its own context error, or the complete
// published result — never a torn mix (partial hits, or hits alongside
// a context error). The happens-before edge is Finish's channel close;
// this pins it under the race detector.
func TestFlightFollowerCancelRace(t *testing.T) {
	const rounds = 500
	const followers = 4
	want := hitsFor(8)
	for round := 0; round < rounds; round++ {
		f := NewFlight()
		key := fmt.Sprintf("k%d", round)
		leader, isLeader := f.Join(key)
		if !isLeader {
			t.Fatal("first join was not leader")
		}
		var wg sync.WaitGroup
		for i := 0; i < followers; i++ {
			c, isLeader := f.Join(key)
			if isLeader {
				t.Fatal("follower join became leader")
			}
			ctx, cancel := context.WithCancel(context.Background())
			wg.Add(2)
			go func() { // cancel races Finish
				defer wg.Done()
				cancel()
			}()
			go func() {
				defer wg.Done()
				hits, err := c.Wait(ctx)
				switch {
				case err == nil:
					// Complete result: every query's hits, intact.
					if len(hits) != len(want) {
						t.Errorf("torn result: %d hit lists, want %d", len(hits), len(want))
						return
					}
					for qi := range want {
						if len(hits[qi]) != len(want[qi]) || hits[qi][0] != want[qi][0] {
							t.Errorf("torn hits for query %d: %+v", qi, hits[qi])
							return
						}
					}
				case errors.Is(err, context.Canceled):
					if hits != nil {
						t.Errorf("context error delivered with hits attached")
					}
				default:
					t.Errorf("unexpected wait error: %v", err)
				}
			}()
		}
		// Finish with a fresh copy each round, as the engine's leader
		// path does: followers share it as immutable.
		f.Finish(key, leader, CopyHits(want), nil)
		wg.Wait()
	}
}

// TestFlightLateJoinAfterFinish: a Join that loses the race against
// Finish must become a fresh leader, not wait forever on a retired
// call.
func TestFlightLateJoinAfterFinish(t *testing.T) {
	f := NewFlight()
	c, leader := f.Join("k")
	if !leader {
		t.Fatal("first join not leader")
	}
	f.Finish("k", c, hitsFor(1), nil)
	if _, leader := f.Join("k"); !leader {
		t.Fatal("join after finish did not start a fresh flight")
	}
}
