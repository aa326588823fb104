// Package shard scales the persistent engine past one machine by
// partitioning the database across shard servers: a Search call is
// scattered to every range concurrently and the per-query hits are
// gathered through a deterministic TopK merge, so results are
// byte-identical to the unsharded engine. Related work makes the same
// move to scale similarity search past one node — fine-grained parallel
// search engines partition the bank across workers (Nguyen & Lavenier
// 2008), and large-scale genomic accelerators partition the data the
// same way (BioSEAL). Each range sits behind the narrow engine.Backend
// interface, so WithBackends accepts internal/remote clients (through
// internal/replica sets in the cluster coordinator) and in-process
// engine.Searchers alike.
package shard

import (
	"fmt"

	"swdual/internal/seq"
)

// Strategy selects how the database is split into shards. Both
// strategies produce contiguous index ranges, so a shard-local hit index
// lifts to the global index by adding the shard's offset.
type Strategy int

const (
	// Contiguous splits the database into shards of (near) equal
	// sequence counts.
	Contiguous Strategy = iota
	// BalancedResidues places the shard boundaries so total residues —
	// and therefore dynamic-programming cell volume, the real unit of
	// work — balance across shards even when sequence lengths are skewed.
	BalancedResidues
)

// String names the strategy the way ParseStrategy accepts it.
func (s Strategy) String() string {
	switch s {
	case Contiguous:
		return "contiguous"
	case BalancedResidues:
		return "balanced"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// ParseStrategy maps a user-facing name to a Strategy. The empty string
// selects Contiguous.
func ParseStrategy(name string) (Strategy, error) {
	switch name {
	case "", "contiguous":
		return Contiguous, nil
	case "balanced", "balanced-residues":
		return BalancedResidues, nil
	}
	return 0, fmt.Errorf("shard: unknown split strategy %q (want contiguous or balanced)", name)
}

// Range is one shard's contiguous slice [Lo, Hi) of the database.
type Range struct {
	Lo, Hi int
}

// RangesFor splits a database into shards ranges — the one split every
// party to a sharded deployment must compute identically: the
// coordinator and each shard server. They all call
// this, so the boundaries can never drift apart.
func RangesFor(db *seq.Set, shards int, strategy Strategy) []Range {
	lengths := make([]int, db.Len())
	for i := range db.Seqs {
		lengths[i] = db.Seqs[i].Len()
	}
	return SplitRanges(lengths, shards, strategy)
}

// SplitRanges partitions n = len(lengths) sequences into shards
// contiguous ranges (shards >= 1; fewer sequences than shards leaves the
// tail ranges empty). The ranges are deterministic for a given input, in
// order, and cover [0, n) exactly.
func SplitRanges(lengths []int, shards int, strategy Strategy) []Range {
	if shards < 1 {
		shards = 1
	}
	n := len(lengths)
	ranges := make([]Range, shards)
	switch strategy {
	case BalancedResidues:
		var total int64
		for _, l := range lengths {
			total += int64(l)
		}
		lo := 0
		var used int64
		for i := 0; i < shards-1; i++ {
			// Aim each shard at an equal share of the residues still
			// unassigned; take one more sequence when it lands closer to
			// the target than stopping short would.
			target := (total - used) / int64(shards-i)
			hi := lo
			var acc int64
			for hi < n {
				l := int64(lengths[hi])
				if acc > 0 && acc+l > target {
					if acc+l-target < target-acc {
						acc += l
						hi++
					}
					break
				}
				acc += l
				hi++
				if acc >= target {
					break
				}
			}
			ranges[i] = Range{Lo: lo, Hi: hi}
			lo = hi
			used += acc
		}
		ranges[shards-1] = Range{Lo: lo, Hi: n}
	default: // Contiguous
		for i := 0; i < shards; i++ {
			ranges[i] = Range{Lo: i * n / shards, Hi: (i + 1) * n / shards}
		}
	}
	return ranges
}
