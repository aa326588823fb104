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

import "swdual/internal/seq"

// Strategy is a parameter of RangesFor and WithBackends that selects
// nothing: BalancedResidues is the one split.
type Strategy int

// BalancedResidues places the range boundaries so total residues — and
// therefore cell volume, the real unit of work — balance across ranges.
const BalancedResidues Strategy = 0

// Range is one shard's contiguous slice [Lo, Hi) of the database.
type Range struct {
	Lo, Hi int
}

// RangesFor splits a database into shards ranges of balanced residues —
// the one split every party to a sharded deployment must compute
// identically: the coordinator and each shard server. They all call
// this, so the boundaries can never drift apart.
func RangesFor(db *seq.Set, shards int, _ Strategy) []Range {
	lengths := make([]int, db.Len())
	for i := range db.Seqs {
		lengths[i] = db.Seqs[i].Len()
	}
	return SplitRanges(lengths, shards)
}

// SplitRanges partitions n = len(lengths) sequences into shards
// contiguous ranges of balanced residues (shards < 1 counts as 1; fewer
// sequences than shards leaves the tail ranges empty). The ranges are
// deterministic for a given input, in order, and cover [0, n) exactly.
func SplitRanges(lengths []int, shards int) []Range {
	if shards < 1 {
		shards = 1
	}
	n := len(lengths)
	ranges := make([]Range, shards)
	var total int64
	for _, l := range lengths {
		total += int64(l)
	}
	lo := 0
	var used int64
	for i := 0; i < shards-1; i++ {
		// Aim each range at an equal share of the residues still
		// unassigned; take one more sequence when it lands closer to the
		// target than stopping short would.
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
	return ranges
}
