// Allocation caps are meaningless under the race detector: -race makes
// sync.Pool deliberately drop ~25% of Put items, so pooled buffers
// reallocate by design and the caps would fail spuriously.

//go:build !race

package engine

import (
	"context"
	"testing"

	"swdual/internal/alphabet"
	"swdual/internal/master"
	"swdual/internal/synth"
)

// TestAllocsSteadyStateSearch pins the allocation budget of a warm
// search on the pool the gate runs (the inter-sequence CPU engine):
// kernel scratch pooled, wave scratch recycled. The cap is a hard
// constant — the steady-state cost of a search must not scale with how
// many waves came before it, and regressions that reintroduce per-wave
// or per-subject allocation blow straight through it.
func TestAllocsSteadyStateSearch(t *testing.T) {
	db := synth.RandomSet(alphabet.Protein, 48, 10, 150, 65)
	queries := synth.RandomSet(alphabet.Protein, 2, 40, 80, 66)
	s, err := New(db, Config{Pool: master.PoolSpec{CPU: 1}, TopK: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	for i := 0; i < 3; i++ { // warm kernel pools and wave scratch
		if _, err := s.Search(ctx, queries, SearchOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(20, func() {
		if _, err := s.Search(ctx, queries, SearchOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	// Measured 33 objects per 2-query search, steady across -cpu 1,2,4
	// (request + merger + wave + channels + schedule + report + per-task
	// score and hit lists; the lane plan is built by the first search).
	// The cap leaves 4 of headroom: per-subject or per-wave regressions
	// add hundreds, and even three per-request maps with entries (6
	// objects) blow through it.
	const searchAllocCap = 37
	if avg > searchAllocCap {
		t.Fatalf("steady-state Search allocates %.1f objects per call, cap %d", avg, searchAllocCap)
	}
}
