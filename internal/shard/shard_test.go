package shard

import (
	"math/rand"
	"testing"
)

// checkPartition asserts the ranges are in order, non-overlapping, and
// cover [0, n) exactly — the invariant both strategies must hold for the
// offset-based global index lift to be correct.
func checkPartition(t *testing.T, ranges []Range, n, shards int) {
	t.Helper()
	if len(ranges) != shards {
		t.Fatalf("%d ranges for %d shards", len(ranges), shards)
	}
	at := 0
	for i, r := range ranges {
		if r.Lo != at {
			t.Fatalf("range %d starts at %d, want %d (gap or overlap)", i, r.Lo, at)
		}
		if r.Hi < r.Lo {
			t.Fatalf("range %d inverted: [%d,%d)", i, r.Lo, r.Hi)
		}
		at = r.Hi
	}
	if at != n {
		t.Fatalf("ranges end at %d, want %d", at, n)
	}
}

func TestSplitRangesContiguous(t *testing.T) {
	for _, tc := range []struct{ n, shards int }{
		{0, 1}, {0, 4}, {1, 1}, {1, 8}, {5, 8}, {13, 4}, {100, 7}, {8, 8},
	} {
		lengths := make([]int, tc.n)
		ranges := SplitRanges(lengths, tc.shards, Contiguous)
		checkPartition(t, ranges, tc.n, tc.shards)
		// Equal counts within one sequence.
		min, max := tc.n, 0
		for _, r := range ranges {
			n := r.Hi - r.Lo
			if n < min {
				min = n
			}
			if n > max {
				max = n
			}
		}
		if tc.n >= tc.shards && max-min > 1 {
			t.Fatalf("n=%d shards=%d: counts spread %d..%d", tc.n, tc.shards, min, max)
		}
	}
}

func TestSplitRangesBalancedResidues(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 50; iter++ {
		n := rng.Intn(60)
		shards := 1 + rng.Intn(8)
		lengths := make([]int, n)
		var total, maxLen int64
		for i := range lengths {
			lengths[i] = 10 + rng.Intn(400)
			total += int64(lengths[i])
			if int64(lengths[i]) > maxLen {
				maxLen = int64(lengths[i])
			}
		}
		ranges := SplitRanges(lengths, shards, BalancedResidues)
		checkPartition(t, ranges, n, shards)
		// Each shard's residue load stays within one sequence of the
		// ideal share: the greedy boundary never overshoots by more than
		// the sequence it chose to take or leave.
		ideal := total / int64(shards)
		for si, r := range ranges {
			var load int64
			for i := r.Lo; i < r.Hi; i++ {
				load += int64(lengths[i])
			}
			if load > ideal+maxLen && si < shards-1 {
				t.Fatalf("iter %d: shard %d loads %d residues, ideal %d, max seq %d", iter, si, load, ideal, maxLen)
			}
		}
	}
}

func TestSplitRangesClampsShards(t *testing.T) {
	ranges := SplitRanges([]int{5, 5}, 0, Contiguous)
	checkPartition(t, ranges, 2, 1)
}

func TestParseStrategy(t *testing.T) {
	for name, want := range map[string]Strategy{
		"": Contiguous, "contiguous": Contiguous,
		"balanced": BalancedResidues, "balanced-residues": BalancedResidues,
	} {
		got, err := ParseStrategy(name)
		if err != nil || got != want {
			t.Fatalf("ParseStrategy(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseStrategy("bogus"); err == nil {
		t.Fatal("bogus strategy accepted")
	}
	if Contiguous.String() != "contiguous" || BalancedResidues.String() != "balanced" {
		t.Fatalf("strategy names: %v %v", Contiguous, BalancedResidues)
	}
}
