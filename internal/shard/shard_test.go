package shard

import (
	"math/rand"
	"testing"
)

// checkPartition asserts the ranges are in order, non-overlapping, and
// cover [0, n) exactly — the invariant the offset-based global index
// lift relies on.
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

// TestSplitRangesContiguous runs the degenerate inputs through the
// split: an empty database, fewer sequences than ranges, zero-length
// sequences and shards = 0 (one range) must still yield contiguous
// ranges that partition the database.
func TestSplitRangesContiguous(t *testing.T) {
	for _, tc := range []struct {
		lengths []int
		shards  int
	}{
		{nil, 1}, {nil, 4}, {nil, 0},
		{[]int{7}, 1}, {[]int{7}, 8}, {[]int{3, 1, 4, 1, 5}, 8},
		{make([]int, 13), 4}, {make([]int, 8), 8}, {make([]int, 100), 7},
		{[]int{0, 9, 0, 0, 9, 0}, 3}, {[]int{9, 0, 0, 0}, 2},
		{[]int{5, 5}, 0}, {make([]int, 3), 0},
	} {
		want := max(tc.shards, 1)
		checkPartition(t, SplitRanges(tc.lengths, tc.shards), len(tc.lengths), want)
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
		ranges := SplitRanges(lengths, shards)
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
