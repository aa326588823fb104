package enginetest

import (
	"bytes"
	"context"
	"testing"

	"swdual/internal/alphabet"
	"swdual/internal/engine"
	"swdual/internal/master"
	"swdual/internal/seq"
	"swdual/internal/sw"
	"swdual/internal/synth"
)

// TestCachedSearcherMatchesOneShot is the caching equivalence proof at
// the cross-check layer: a Searcher with the result cache and request
// collapsing on must stay byte-identical to a one-shot oracle pass over
// the database — on the cold miss, on warm hits, and when distinct query
// sets interleave so cache entries compete.
func TestCachedSearcherMatchesOneShot(t *testing.T) {
	db := synth.RandomSet(alphabet.Protein, 50, 10, 180, 95)
	params := sw.DefaultParams()
	for _, policy := range []master.Policy{
		master.PolicyDualApprox, master.PolicySelfScheduling,
	} {
		s, err := engine.New(db, engine.Config{
			Params: params, Pool: master.PoolSpec{CPU: 2, GPU: 1}, TopK: 5, Policy: policy,
			Cache: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		const sets = 3
		querySets := make([]*seq.Set, sets)
		want := make([][]byte, sets)
		for i := range querySets {
			querySets[i] = synth.RandomSet(alphabet.Protein, 6, 20, 110, int64(900+i))
			want[i] = hitBytes(t, oracle(db, querySets[i], 5))
		}
		// Interleave the sets so every one is a cold miss once and a warm
		// hit twice, with other entries inserted in between.
		for round := 0; round < 3; round++ {
			for i, queries := range querySets {
				got, err := s.Search(context.Background(), queries, engine.SearchOptions{})
				if err != nil {
					t.Fatalf("%v round %d set %d: %v", policy, round, i, err)
				}
				if !bytes.Equal(hitBytes(t, got.Results), want[i]) {
					t.Fatalf("%v round %d set %d: cached hits differ from the oracle", policy, round, i)
				}
			}
		}
		st := s.Stats()
		if st.CacheMisses != sets || st.CacheHits != 2*sets {
			t.Fatalf("%v: misses/hits %d/%d, want %d/%d", policy, st.CacheMisses, st.CacheHits, sets, 2*sets)
		}
		s.Close()
	}
}
