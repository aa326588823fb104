// Package master implements the paper's master-slave model (§IV,
// Figure 6) and splits it into its three roles, each reusable on its
// own: task generation (tasks.go — one task per query, with times
// estimated from worker rates), a scheduling policy (policy.go — each
// policy is one scheduler of package sched, the dual approximation by
// default), and result merge (merge.go). Workers run as a persistent
// Pool (pool.go) of goroutines. Every worker scores with the SWIPE-style
// inter-sequence engine (swvector.InterSeq), so a run produces exact
// alignment scores, and every worker's rate is measured from the wall
// time of its tasks. The Pool owns its queues, which workers are idle
// and each worker's measured rate; a Worker only runs tasks and
// advertises a rate.
//
// The internal/engine package composes the three roles into the one
// search path: a long-lived service that amortizes preparation across
// requests.
package master

import (
	"time"

	"swdual/internal/sched"
	"swdual/internal/scoring"
	"swdual/internal/seq"
	"swdual/internal/sw"
)

// Hit is one database match of a query.
type Hit struct {
	SeqIndex int
	SeqID    string
	Score    int
}

// QueryResult is the merged outcome of one task.
type QueryResult struct {
	QueryIndex int
	QueryID    string
	Hits       []Hit // descending score, capped at the master's TopK
	Worker     string
	Elapsed    time.Duration // wall time spent by the worker
	Cells      int64
}

// Worker is a processing element registered with the master.
type Worker interface {
	// Name identifies the worker in reports.
	Name() string
	// Kind reports the scheduling pool the worker belongs to.
	Kind() sched.Kind
	// Run compares one query against the whole database.
	Run(queryIndex int, query *seq.Sequence, db *seq.Set) QueryResult
	// RateGCUPS is the worker's advertised throughput. A Pool seeds its
	// measured estimate of the worker with it and refines that from every
	// task the worker completes (the paper's master "uses the information
	// gathered from the workers").
	RateGCUPS() float64
}

// ProfiledWorker is a Worker with the RunProfiled method the Pool used
// to route tasks through when they carried a shared profile set. Nothing
// in the module calls RunProfiled any more: it forwards to Run (prof was
// a construction cache, never an input). The interface stays only
// because benchmark/trace.go type-asserts every pool worker to it, and
// goes with the item-2 benchmark PR.
type ProfiledWorker interface {
	Worker
	RunProfiled(queryIndex int, query *seq.Sequence, prof *scoring.QueryProfiles, db *seq.Set) QueryResult
}

// Report is the outcome of one search request.
type Report struct {
	Results []QueryResult // indexed by query; each names its worker and time
	Wall    time.Duration
	Cells   int64
	GCUPS   float64 // based on wall time
	// Schedule is the plan of the wave the request ran in (makespan,
	// idle fraction), as the engine's policy planned it at the pool's
	// measured rates on the idle workers. It covers the whole wave, so
	// every request coalesced into it, not this request alone. Every
	// policy but self-scheduling, which allocates while workers run,
	// plans one. nil on a self-scheduled, cached or sharded answer.
	Schedule *sched.Schedule
	// Coverage is non-nil only on a partial answer: a sharded
	// coordinator searched some ranges of the database but skipped
	// others whose every replica was unavailable. nil means full
	// coverage, which every unsharded path and every healthy cluster
	// answers, so full answers stay byte-identical to an unsharded
	// search.
	Coverage *Coverage
}

// SkippedRange names one database range a degraded search did not
// touch: its shard index, its [Lo, Hi) sequence slice, and the failure
// that took it out (pre-formatted — reasons are for operators, not for
// errors.Is).
type SkippedRange struct {
	Index  int
	Lo, Hi int
	Reason string
}

// Coverage quantifies how much of the database a degraded search
// actually saw. Hits from searched ranges are byte-identical to what a
// full search would report for those ranges; the skipped ranges
// contributed nothing, so a global top-k may be missing matches that
// live there.
type Coverage struct {
	// RangesSearched / RangesTotal count shard ranges; residues weight
	// them by how much sequence data each range holds.
	RangesSearched   int
	RangesTotal      int
	ResiduesSearched int64
	ResiduesTotal    int64
	Skipped          []SkippedRange
}

// Fraction is the searched share of the database by residue volume, in
// [0, 1] (1 when the database is empty — nothing was missed).
func (c *Coverage) Fraction() float64 {
	if c.ResiduesTotal <= 0 {
		return 1
	}
	return float64(c.ResiduesSearched) / float64(c.ResiduesTotal)
}

// TopHits returns the k best of the raw scores, db[i] scoring scores[i],
// as hits in HitBefore order: the first k of a stable sort of all of
// them, and an empty list for k <= 0. It selects in one pass over the
// scores, inserting into the k kept so far only a score that beats the
// worst of them, and looks up the SeqIDs of the k it returns only.
func TopHits(db *seq.Set, scores []int, k int) []Hit {
	hits := make([]Hit, 0, max(0, min(k, len(scores))))
	if cap(hits) == 0 {
		return hits
	}
	for i, s := range scores {
		h := Hit{SeqIndex: i, Score: s}
		if len(hits) == cap(hits) {
			if !HitBefore(h, hits[len(hits)-1]) {
				continue
			}
			hits = hits[:len(hits)-1]
		}
		j := len(hits)
		for j > 0 && HitBefore(h, hits[j-1]) {
			j--
		}
		hits = append(hits, Hit{})
		copy(hits[j+1:], hits[j:])
		hits[j] = h
	}
	for i := range hits {
		hits[i].SeqID = db.Seqs[hits[i].SeqIndex].ID
	}
	return hits
}

// Engine-backed workers.

// EngineWorker runs its tasks on an sw.Engine.
type EngineWorker struct {
	name   string
	kind   sched.Kind
	engine sw.Engine
	rate   float64
	topK   int
}

// NewEngineWorker builds a worker over an engine. rateGCUPS is the
// advertised throughput that seeds a Pool's measured-rate estimate.
func NewEngineWorker(name string, kind sched.Kind, engine sw.Engine, rateGCUPS float64, topK int) *EngineWorker {
	if topK <= 0 {
		topK = 10
	}
	return &EngineWorker{name: name, kind: kind, engine: engine, rate: rateGCUPS, topK: topK}
}

// Name implements Worker.
func (w *EngineWorker) Name() string { return w.name }

// Kind implements Worker.
func (w *EngineWorker) Kind() sched.Kind { return w.kind }

// RateGCUPS implements Worker.
func (w *EngineWorker) RateGCUPS() float64 { return w.rate }

// Run implements Worker.
func (w *EngineWorker) Run(queryIndex int, query *seq.Sequence, db *seq.Set) QueryResult {
	start := time.Now()
	scores := w.engine.Scores(query.Residues, db)
	elapsed := time.Since(start)
	return QueryResult{
		QueryIndex: queryIndex,
		QueryID:    query.ID,
		Hits:       TopHits(db, scores, w.topK),
		Worker:     w.name,
		Elapsed:    elapsed,
		Cells:      sw.SetCells(query.Len(), db),
	}
}

// RunProfiled implements ProfiledWorker by running the task as Run does.
func (w *EngineWorker) RunProfiled(queryIndex int, query *seq.Sequence, _ *scoring.QueryProfiles, db *seq.Set) QueryResult {
	return w.Run(queryIndex, query, db)
}
