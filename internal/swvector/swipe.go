package swvector

import (
	"bytes"
	"math"
	"slices"
	"sync"

	"swdual/internal/seq"
	"swdual/internal/sw"
)

// InterSeq is the Rognes SWIPE-style inter-sequence engine (the analogue
// of the SWIPE baseline in the paper's Table I): database sequences are
// aligned against the query simultaneously, one per byte lane, with
// finished lanes refilled from the remaining database.
//
// One lane driver (runLanes) feeds one of two column kernels, chosen when
// the engine is built and named by Name:
//
//   - interseq-avx2, on amd64 CPUs with AVX2: 32 byte lanes in a YMM
//     register, offset by K like the SWAR lanes so that nothing in the
//     column needs a saturating instruction, four database columns per
//     pass over the query rows. A lane is exact for scores up to
//     255 - max S - K (230 with BLOSUM62 and 10/2 gaps).
//   - interseq-swar, everywhere else: 8 lanes of 7-bit values offset by
//     K = max(OpenCost+Extend, bias) under a guard bit in a uint64. A lane
//     is exact up to 127-K (113 with BLOSUM62 and 10/2 gaps).
//
// Both index the matrix as the oracle does, row = query residue. A
// subject whose score leaves its lane's range retires flagged and climbs
// one ladder: on the AVX2 path the 16-bit striped pair kernel
// (pairKernel: Farrar's intra-sequence layout, 16 lanes along the query,
// exact to 65534-bias), and sw.Score only for what saturates that too.
// Striped, not the same column 16 bits wide: a benchmark-shaped query of
// 160 residues or more flags exactly one subject, its homolog, which
// would fill 1 lane of 16 (the AVX2 column on a one-subject set runs 0.55
// Gcell/s; the pair kernel 2.7-3.1, the oracle 0.19 — its one call was 21 %
// of such a task). With Gaps.Start == 0 the pair kernel's lazy-F early
// exit is not exact, so those models skip it; so does the SWAR path,
// whose 16-bit striped kernel (scoreStriped16, the pair kernel's
// reference) is half the oracle's speed. Parameters that leave the AVX2
// lanes no room above K (K + max S >= 255: gap costs near or past a
// byte) send every subject up the same ladder, and those no kernel can
// serve (negative gap penalties; a matrix too wide for a lane) to the
// oracle: exact, just slow.
//
// InterSeq reads no per-query profile: the column profile is rebuilt
// from the biased matrix for every database column, and the pair
// kernel's striped profile (64 bytes per query residue) is built in
// pooled scratch at the first flagged subject of a Scores call and
// dropped at its end — a profile cache retaining it per query cost
// serve_http 47 % of its RSS when that was tried.
//
// What does not depend on the query is paid once per database: the
// engine keeps the lane plan (lanePlan) of the Set it scored last, the
// subject order (exact longest first), the lane steps and the residues
// pre-interleaved as the column consumes them, and builds a new one when
// it is given another Set or the Set's length changed. A Set's sequences
// must therefore not change in place between calls; growing it is fine.
// Behind the AVX2 column with Gs > 0 the plan also routes a subject that
// would hold the lanes alone straight to the pair kernel, where a cost
// rule (routeCount, priced by pairSlots) finds that cheaper: it climbs the
// ladder with the flagged subjects without entering a lane. An InterSeq is safe
// for concurrent use — its kernels are pooled, and the plan is built
// under a lock, once — so a pool's CPU workers share one.
type InterSeq struct {
	params sw.Params
	vector bool // the AVX2 column was chosen
	// The chosen kernel's view of the scoring parameters; the other stays
	// nil, and so do both when the lanes have no usable range.
	avx2 *avx2Tables
	swar *swarTables
	// route lets the lane plan send its longest subjects to the pair
	// kernel (newLanePlan): set where that kernel is exact behind the
	// AVX2 column.
	route bool

	mu   sync.Mutex
	plan *lanePlan // of the Set scored last
}

// NewInterSeq builds the engine on the AVX2 column when the CPU has it,
// on the SWAR column otherwise.
func NewInterSeq(p sw.Params) *InterSeq { return newInterSeq(p, hasAVX2) }

// newInterSeq is NewInterSeq with the CPU's answer supplied: tests pass
// vector = false to run the SWAR column on an AVX2 machine.
func newInterSeq(p sw.Params, vector bool) *InterSeq {
	e := &InterSeq{params: p, vector: vector}
	if vector {
		e.avx2 = newAVX2Tables(p)
		e.route = e.avx2 != nil && e.avx2.column && e.avx2.pairExact
	} else {
		e.swar = newSWARTables(p)
	}
	return e
}

// Name implements sw.Engine.
func (e *InterSeq) Name() string {
	if e.vector {
		return "interseq-avx2"
	}
	return "interseq-swar"
}

// Scores implements sw.Engine.
func (e *InterSeq) Scores(query []byte, db *seq.Set) []int {
	if e.avx2 == nil && e.swar == nil {
		return sw.NewScalar(e.params).Scores(query, db)
	}
	out := make([]int, db.Len())
	if len(query) == 0 || db.Len() == 0 {
		return out
	}
	var pair *pairKernel // built at the first flagged subject
	for _, i := range e.scoreLanes(query, db, out) {
		subject := db.Seqs[i].Residues
		if e.avx2 != nil && e.avx2.pairExact {
			if pair == nil {
				pair = newPairKernel(e.avx2, query)
			}
			if s, overflow := pair.score(subject); !overflow {
				out[i] = s
				continue
			}
		}
		out[i] = sw.Score(e.params, query, subject)
	}
	if pair != nil {
		pair.release()
	}
	return out
}

// scoreLanes runs the engine's column kernel over db, writes the scores
// that stayed in their lanes to out and returns the database indexes of
// the subjects that did not: those that overflowed their lane, then those
// the plan routed past the lanes. The query is non-empty and the engine
// has a kernel.
func (e *InterSeq) scoreLanes(query []byte, db *seq.Set, out []int) (overflowed []int) {
	var k laneKernel
	switch {
	case e.avx2 == nil:
		k = newSWARKernel(e.swar, query)
	case e.avx2.column:
		k = newAVX2Kernel(e.avx2, query)
	default: // no lane has a range: as if every subject had left it
		for i := range db.Seqs {
			if db.Seqs[i].Len() > 0 {
				overflowed = append(overflowed, i)
			}
		}
		return overflowed
	}
	plan := e.planFor(db, k.lanes(), k.block())
	runLanes(k, plan, out, &overflowed)
	k.release()
	return append(overflowed, plan.routed...)
}

// planFor returns the lane plan of db, building it if the engine's plan
// is of another Set or of db at another length.
func (e *InterSeq) planFor(db *seq.Set, lanes, block int) *lanePlan {
	e.mu.Lock()
	defer e.mu.Unlock()
	if p := e.plan; p == nil || p.db != db || p.count != db.Len() {
		e.plan = newLanePlan(db, lanes, block, e.route)
	}
	return e.plan
}

var _ sw.Engine = (*InterSeq)(nil)

// maxLanes is the widest kernel's lane count.
const maxLanes = 32

// idleCode is the residue a lane without a subject consumes. It is one
// past the largest residue code, and both kernels score it as the most
// negative matrix entry against every query residue, so an idle lane
// holds H = 0.
const idleCode = 32

// laneKernel is the part of the inter-sequence engine that exists once
// per instruction set: the DP state of lanes() subjects against one
// query, and the column arithmetic on it.
type laneKernel interface {
	lanes() int
	// block is the number of columns the kernel runs at a time: advance
	// takes multiples of it, 1 if it runs them singly.
	block() int
	// reset gives lane l an empty DP column — H = E = 0 in every query
	// row — and clears its running maximum and overflow flag.
	reset(l int)
	// advance runs len(stream) / lanes() DP columns, a multiple of
	// block(): lane l consumes stream[j*lanes() + l] in column j.
	advance(stream []byte)
	// score returns lane l's running maximum, or overflow = true if the
	// lane left its exact range since its last reset.
	score(l int) (score int, overflow bool)
	// release returns the kernel to its pool. The caller must not touch
	// it afterwards.
	release()
}

// runLanes is the lane driver both kernels share: it replays plan, built
// for the kernel's lanes and block, against the kernel's query.
// Each step resets the lanes that take a new subject, advances every lane
// over the step's columns of the plan's stream, and retires the subjects
// that ended — their score into out, or their index onto overflowed if
// the lane overflowed.
func runLanes(k laneKernel, plan *lanePlan, out []int, overflowed *[]int) {
	stream, width := plan.stream, k.lanes()
	for _, st := range plan.steps {
		for _, l := range st.starts {
			k.reset(l)
		}
		k.advance(stream[:st.cols*width])
		stream = stream[st.cols*width:]
		for _, e := range st.ends {
			if s, overflow := k.score(e.lane); overflow {
				*overflowed = append(*overflowed, e.subject)
			} else {
				out[e.subject] = s
			}
		}
	}
}

// lanePlan is the query-independent half of a lane pass: which subject
// each lane holds in which column, for one database and one kernel's lane
// count and block. An InterSeq builds it at the first task on a database
// and every later task replays it (InterSeq.planFor).
//
// Subjects are taken longest first, in exact descending length and in
// database order among equals. The lanes run until the last one
// finishes, so a long subject that starts late leaves the others idle
// behind it: in database order 32 lanes are 80 % occupied on 300
// sequences of log-normal lengths (65 % on 150), longest first 98 %
// (96 %). On the benchmark corpus the plan holds 106 885 residues in
// 108 928 slots, 98.1 %. Empty subjects are not planned; they score 0,
// which out already holds.
//
// Longest first cannot help a subject longer than the set's residues
// over lanes: its lane alone sets the pass's length, and the others idle
// beside it. Where the pair kernel is exact behind the AVX2 column
// (InterSeq.route), the plan leaves such stragglers to it instead, when
// that is cheaper (routeCount): routed subjects take no slot and are
// handed on with the flagged ones. On the benchmark corpus nothing is
// routed; on the cluster's half holding its 2 217-residue subject that
// subject is, and the plan falls from 2 220 columns (75.4 % occupied) to
// 1 652 (97.1 %).
type lanePlan struct {
	// The database planned, and its length then: a Set that grew since is
	// another database.
	db    *seq.Set
	count int
	steps []laneStep
	// stream is every column's residues, lanes bytes a column, with
	// idleCode in the slots of an idle lane and in the up to block-1
	// columns a lane runs past its subject's end. It is a copy: the
	// kernels never read a subject, which may end its mapping.
	stream []byte
	// routed is the database indexes of the subjects left to the pair
	// kernel, longest first; they have no slot in stream.
	routed []int
}

// laneStep is one advance of the plan: the lanes that take a new subject
// before it, its column count and the lanes whose subject ends inside it.
type laneStep struct {
	starts []int
	cols   int
	ends   []laneSubject
}

type laneSubject struct{ lane, subject int }

// pairSlots is the pair kernel's cost per cell in column slots: the
// column's rate over every slot it runs, idle ones included, over the
// pair kernel's rate on one subject. BenchmarkLaneSlotRates, one thread
// of a 2-vCPU Xeon, medians of 5 runs: the column 12.0 Gslot/s at 32
// query residues and 14.8 at 270, the pair kernel 2.9 and 5.8 Gcell/s, so
// 4.1 and 2.5. The short query's ratio is taken, rounded, so a short
// query seldom routes a subject its column would have scored sooner.
const pairSlots = 4

// routeCount returns how many of the longest subjects the pair kernel
// takes: order is db's non-empty subjects, longest first, and total
// their residues. With L[k] the length of order[k] (0 past the end),
// routing the k longest costs an estimated lanes·max(L[k],
// ⌈(total−S_k)/lanes⌉) column slots, the longer of the longest subject
// left and a perfectly packed rest, plus pairSlots·S_k for the routed
// residues S_k; the cheapest k wins, the smallest on a tie. The scan
// stops at the first k whose longest subject fits the rest's packed
// length, L[k]·lanes <= total−S_k: routing more only trades column slots
// one for one against dearer pair cells.
func routeCount(db *seq.Set, order []int, total, lanes int) int {
	best, bestCost, routed := 0, math.MaxInt, 0
	for k := 0; ; k++ {
		l := 0
		if k < len(order) {
			l = db.Seqs[order[k]].Len()
		}
		rest := total - routed
		if cost := lanes*max(l, (rest+lanes-1)/lanes) + pairSlots*routed; cost < bestCost {
			best, bestCost = k, cost
		}
		if l*lanes <= rest {
			return best
		}
		routed += l
	}
}

// newLanePlan simulates the lane pass over db's lengths, then writes the
// stream in one allocation, each subject's residues strided into its
// lane. Every step runs as many columns as the shortest remaining subject
// has, rounded up to whole blocks: the at most block-1 columns past a
// subject's end are idle ones, whose diagonal term G < H' cannot raise the
// lane's maximum, so the score stays exact. With route, the plan first
// leaves routeCount's longest subjects out.
func newLanePlan(db *seq.Set, lanes, block int, route bool) *lanePlan {
	order := make([]int, 0, db.Len())
	total := 0
	for i := range db.Seqs {
		if n := db.Seqs[i].Len(); n > 0 {
			order = append(order, i)
			total += n
		}
	}
	slices.SortStableFunc(order, func(a, b int) int { return db.Seqs[b].Len() - db.Seqs[a].Len() })
	var routed []int
	if route {
		k := routeCount(db, order, total, lanes)
		routed, order = order[:k:k], order[k:]
	}

	var (
		subject [maxLanes]int // database index per lane, -1 = idle
		left    [maxLanes]int // the lane's residues not yet consumed
		// first[i] is the stream offset of order[i]'s first residue.
		first     = make([]int, len(order))
		starts    = make([]int, 0, len(order))
		ends      = make([]laneSubject, 0, len(order))
		steps     = make([]laneStep, 0, len(order)) // each ends a subject
		next, col int
		active    int // subjects in lanes
		pending   int // starts[pending:] reset before the next step
	)
	fill := func(l int) {
		subject[l] = -1
		if next == len(order) {
			return
		}
		subject[l], left[l] = order[next], db.Seqs[order[next]].Len()
		first[next] = col*lanes + l
		starts = append(starts, l)
		next++
		active++
	}
	for l := 0; l < lanes; l++ {
		fill(l)
	}
	for active > 0 {
		cols := math.MaxInt
		for l := 0; l < lanes; l++ {
			if subject[l] >= 0 {
				cols = min(cols, left[l])
			}
		}
		cols = (cols + block - 1) / block * block
		st := laneStep{starts: starts[pending:len(starts):len(starts)], cols: cols}
		pending, col = len(starts), col+cols
		from := len(ends)
		for l := 0; l < lanes; l++ {
			if subject[l] < 0 {
				continue
			}
			if left[l] -= cols; left[l] > 0 {
				continue
			}
			ends = append(ends, laneSubject{l, subject[l]})
			active--
			fill(l)
		}
		st.ends = ends[from:len(ends):len(ends)]
		steps = append(steps, st)
	}

	stream := bytes.Repeat([]byte{idleCode}, col*lanes)
	for i, s := range order {
		p := first[i]
		for _, r := range db.Seqs[s].Residues {
			stream[p] = r
			p += lanes
		}
	}
	return &lanePlan{db: db, count: db.Len(), steps: steps, stream: stream, routed: routed}
}
