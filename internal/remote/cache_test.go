package remote

import (
	"bytes"
	"context"
	"testing"

	"swdual/internal/alphabet"
	"swdual/internal/engine"
	"swdual/internal/master"
	"swdual/internal/synth"
)

// TestCachedServerMatchesUncached is the remote-layer equivalence
// proof: a server engine running with the result cache on must answer
// byte-identically to one running uncached — across repeated identical
// requests from the same client connection — and its cache counters
// must cross the wire in the Stats frame.
func TestCachedServerMatchesUncached(t *testing.T) {
	db := synth.RandomSet(alphabet.Protein, 40, 10, 150, 71)
	queries := synth.RandomSet(alphabet.Protein, 5, 20, 90, 72)

	plainAddr, _ := startServer(t, db, engine.Config{Pool: master.PoolSpec{CPU: 1, GPU: 1}, TopK: 5})
	cachedAddr, _ := startServer(t, db, engine.Config{Pool: master.PoolSpec{CPU: 1, GPU: 1}, TopK: 5, Cache: true})

	plain, err := Dial(plainAddr, db.Checksum())
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	cached, err := Dial(cachedAddr, db.Checksum())
	if err != nil {
		t.Fatal(err)
	}
	defer cached.Close()

	want, err := plain.Search(context.Background(), queries, engine.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wantBytes := hitBytes(t, want.Results)
	for round := 0; round < 3; round++ {
		got, err := cached.Search(context.Background(), queries, engine.SearchOptions{})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if !bytes.Equal(hitBytes(t, got.Results), wantBytes) {
			t.Fatalf("round %d: cached server hits differ from uncached server", round)
		}
	}

	// The counters cross the wire: the cached server reports its misses
	// and hits; the uncached server reports zeros. The Welcome carried
	// the servers' TopK cap.
	cst := cached.Stats()
	if cst.CacheMisses != 1 || cst.CacheHits != 2 {
		t.Fatalf("cached server misses/hits over the wire %d/%d, want 1/2", cst.CacheMisses, cst.CacheHits)
	}
	if cst.Waves != 1 {
		t.Fatalf("cached server waves %d, want 1", cst.Waves)
	}
	if cached.TopK() != 5 || plain.TopK() != 5 {
		t.Fatalf("server TopK over the wire %d/%d, want 5", cached.TopK(), plain.TopK())
	}
	pst := plain.Stats()
	if pst.CacheHits != 0 || pst.CacheMisses != 0 || pst.CollapsedSearches != 0 {
		t.Fatalf("uncached server reports cache traffic: %+v", pst)
	}
	if pst.Waves != 1 || pst.Searches != 1 {
		t.Fatalf("uncached server stats: %+v", pst)
	}
}
