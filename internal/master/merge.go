package master

import (
	"sync"
	"time"

	"swdual/internal/sched"
	"swdual/internal/stats"
)

// Result merge: the third of the master's three roles. A Merger gathers
// worker results for one request (one query set) and finalizes the
// Report. It is safe for concurrent Add calls from many workers.

// HitBefore is the canonical hit order every merge in the module agrees
// on: descending score, then ascending SeqIndex. TopHits and MergeTopK
// both select with it, which is what makes sharded results
// byte-identical to unsharded ones.
func HitBefore(a, b Hit) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.SeqIndex < b.SeqIndex
}

// MergeTopK gathers per-shard hit lists into one global top-k list. Each
// list must already be in HitBefore order over shard-local indices — the
// order TopHits produces — and offsets[i] is added to list i's SeqIndex
// values to lift them into the global index space (shards cover disjoint
// contiguous ranges, so lifting preserves each list's order and global
// indices never collide). The merge is a deterministic k-way selection:
// ties in score break on the global index, exactly like an unsharded
// TopHits pass over the whole database.
func MergeTopK(lists [][]Hit, offsets []int, k int) []Hit {
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	if total > k {
		total = k
	}
	out := make([]Hit, 0, total)
	cursors := make([]int, len(lists))
	for len(out) < k {
		best := -1
		var bestHit Hit
		for li, l := range lists {
			if cursors[li] >= len(l) {
				continue
			}
			h := l[cursors[li]]
			h.SeqIndex += offsets[li]
			if best < 0 || HitBefore(h, bestHit) {
				best, bestHit = li, h
			}
		}
		if best < 0 {
			break
		}
		cursors[best]++
		out = append(out, bestHit)
	}
	return out
}

// MergeParts merges the results of one query run as one part per
// contiguous database range into the result a single run over the whole
// database would have given: the hits through MergeTopK, part i's lifted
// by offsets[i], and the cells and worker time summed. A zero part (a
// range that was not searched) contributes nothing. lists is scratch of
// at least len(parts) entries, left holding the parts' hit lists, so a
// caller merging query after query allocates it once. The caller names
// the query and the worker.
func MergeParts(parts []QueryResult, offsets []int, k int, lists [][]Hit) QueryResult {
	var out QueryResult
	lists = lists[:len(parts)]
	for i := range parts {
		lists[i] = parts[i].Hits
		out.Cells += parts[i].Cells
		out.Elapsed += parts[i].Elapsed
	}
	out.Hits = MergeTopK(lists, offsets, k)
	return out
}

// Merger accumulates the results of one search request.
type Merger struct {
	mu      sync.Mutex
	results []QueryResult
	pending int
	done    chan struct{}
	start   time.Time
}

// NewMerger prepares a merge over n expected query results. A merge over
// zero results is complete immediately.
func NewMerger(n int) *Merger {
	g := &Merger{
		results: make([]QueryResult, n),
		pending: n,
		done:    make(chan struct{}),
		start:   time.Now(),
	}
	if n == 0 {
		close(g.done)
	}
	return g
}

// Add records one worker result. index is the query's position in the
// request (not in any larger scheduling wave). Add closes the merge when
// the last expected result arrives.
func (g *Merger) Add(index int, res QueryResult) {
	g.mu.Lock()
	g.results[index] = res
	g.pending--
	last := g.pending == 0
	g.mu.Unlock()
	if last {
		close(g.done)
	}
}

// Skip marks one expected result as abandoned (e.g. the request's context
// was canceled before the task ran), so the merge can still complete.
func (g *Merger) Skip(index int) {
	g.mu.Lock()
	g.pending--
	last := g.pending == 0
	g.mu.Unlock()
	if last {
		close(g.done)
	}
}

// Done is closed once every expected result was added or skipped.
func (g *Merger) Done() <-chan struct{} { return g.done }

// Report finalizes the merged report. Call only after Done is closed (or
// when abandoning the request early; partial results are kept).
func (g *Merger) Report(s *sched.Schedule) *Report {
	g.mu.Lock()
	defer g.mu.Unlock()
	rep := &Report{
		Results:  g.results,
		Wall:     time.Since(g.start),
		Schedule: s,
	}
	for i := range rep.Results {
		rep.Cells += rep.Results[i].Cells
	}
	rep.GCUPS = stats.GCUPS(rep.Cells, rep.Wall.Seconds())
	return rep
}
