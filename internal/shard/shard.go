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
type Range = seq.Range

// RangesFor splits a database into shards ranges of balanced residues —
// the one split every party to a sharded deployment must compute
// identically: the coordinator and each shard server. They all call
// this, so the boundaries can never drift apart.
func RangesFor(db *seq.Set, shards int, _ Strategy) []Range { return db.Ranges(shards) }

// SplitRanges partitions n = len(lengths) sequences into shards
// contiguous ranges of balanced residues: seq.SplitRanges, the split a
// search engine also cuts its chunks with.
func SplitRanges(lengths []int, shards int) []Range { return seq.SplitRanges(lengths, shards) }
