package enginetest

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"swdual/internal/alphabet"
	"swdual/internal/engine"
	"swdual/internal/master"
	"swdual/internal/seq"
	"swdual/internal/sw"
	"swdual/internal/synth"
)

// TestOverlappingWavesMatchOracle is the generated equivalence check of
// the work-conserving dispatcher: 8 closed-loop callers x 25 searches
// keep waves overlapping on a 2-worker pool and on a cpu=2,gpu=1 pool,
// under every policy, with a tenth of the calls canceled — half of those
// before the call, half at a random moment during it. Every answer that
// comes back equals the sw.Score oracle's top-k hit for hit, a canceled
// call returns its context's error or (if it won the race) the right
// answer, nothing else fails, and Close leaves no goroutine behind.
func TestOverlappingWavesMatchOracle(t *testing.T) {
	const callers, searches, topK, inputs = 8, 25, 5, 12
	params := sw.DefaultParams()
	db := synth.RandomSet(alphabet.Protein, 40, 10, 120, 95)
	queries := make([]*seq.Set, inputs)
	want := make([][][]master.Hit, inputs)
	for i := range queries {
		queries[i] = synth.RandomSet(alphabet.Protein, 1+i%3, 20, 90, int64(950+i))
		for _, res := range oracle(db, queries[i], topK) {
			want[i] = append(want[i], res.Hits)
		}
	}
	before := runtime.NumGoroutine()
	for _, pool := range []master.PoolSpec{{CPU: 2}, {CPU: 2, GPU: 1}} {
		for _, policy := range []master.Policy{master.PolicyDualApprox, master.PolicyRoundRobin, master.PolicySelfScheduling} {
			s, err := engine.New(db, engine.Config{Params: params, Pool: pool, TopK: topK, Policy: policy})
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for c := 0; c < callers; c++ {
				wg.Add(1)
				go func(rng *rand.Rand) {
					defer wg.Done()
					for n := 0; n < searches; n++ {
						in := rng.Intn(inputs)
						ctx, cancel := context.WithCancel(context.Background())
						mustFail := false
						if rng.Intn(10) == 0 {
							if mustFail = rng.Intn(2) == 0; mustFail {
								cancel()
							} else {
								time.AfterFunc(time.Duration(rng.Intn(300))*time.Microsecond, cancel)
							}
						}
						rep, err := s.Search(ctx, queries[in], engine.SearchOptions{})
						canceled := ctx.Err() != nil
						cancel()
						if err := checkAnswer(rep, err, want[in], canceled, mustFail); err != nil {
							t.Errorf("pool %v, %v: %v", pool, policy, err)
							return
						}
					}
				}(rand.New(rand.NewSource(int64(c))))
			}
			wg.Wait()
			if err := s.Close(); err != nil {
				t.Fatalf("pool %v, %v: close: %v", pool, policy, err)
			}
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines outlived Close: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}

// checkAnswer judges one Search outcome. canceled says the call's context
// was dead by the time it returned; mustFail that it was dead before the
// call.
func checkAnswer(rep *master.Report, err error, want [][]master.Hit, canceled, mustFail bool) error {
	if err != nil {
		if canceled && errors.Is(err, context.Canceled) {
			return nil
		}
		return fmt.Errorf("search failed with %w (context canceled: %v)", err, canceled)
	}
	if mustFail {
		return errors.New("a search on a dead context returned an answer")
	}
	if len(rep.Results) != len(want) {
		return fmt.Errorf("%d results for %d queries", len(rep.Results), len(want))
	}
	for qi, res := range rep.Results {
		if !slices.Equal(res.Hits, want[qi]) {
			return fmt.Errorf("query %d: hits %v, oracle %v", qi, res.Hits, want[qi])
		}
	}
	return nil
}
