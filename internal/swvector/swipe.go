package swvector

import (
	"bytes"
	"math"
	"math/bits"
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
// subject order, the lane steps and the residues pre-interleaved as the
// column consumes them, and builds a new one when it is given another Set
// or the Set's length changed. A Set's sequences must therefore not
// change in place between calls; growing it is fine. An InterSeq is safe
// for concurrent use — its kernels are pooled, and the plan is built
// under a lock, once — so a pool's CPU workers share one.
type InterSeq struct {
	params sw.Params
	vector bool // the AVX2 column was chosen
	// The chosen kernel's view of the scoring parameters; the other stays
	// nil, and so do both when the lanes have no usable range.
	avx2 *avx2Tables
	swar *swarTables

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
// the subjects that did not. The query is non-empty and the engine has a
// kernel.
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
	runLanes(k, e.planFor(db, k.lanes(), k.block()), out, &overflowed)
	k.release()
	return overflowed
}

// planFor returns the lane plan of db, building it if the engine's plan
// is of another Set or of db at another length.
func (e *InterSeq) planFor(db *seq.Set, lanes, block int) *lanePlan {
	e.mu.Lock()
	defer e.mu.Unlock()
	if p := e.plan; p == nil || p.db != db || p.count != db.Len() {
		e.plan = newLanePlan(db, lanes, block)
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
// Subjects are taken longest first, by power-of-two length class and in
// database order within a class. The lanes run until the last one
// finishes, so a long subject that starts late leaves the others idle
// behind it: in database order 32 lanes are 80 % occupied on 300
// sequences of log-normal lengths (65 % on 150), in class order 98 %
// (96 %). On the benchmark corpus the plan holds 106 885 residues in
// 109 440 slots, 97.7 %. Empty subjects belong to no class; they score
// 0, which out already holds.
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
}

// laneStep is one advance of the plan: the lanes that take a new subject
// before it, its column count and the lanes whose subject ends inside it.
type laneStep struct {
	starts []int
	cols   int
	ends   []laneSubject
}

type laneSubject struct{ lane, subject int }

// newLanePlan simulates the lane pass over db's lengths, then writes the
// stream in one allocation, each subject's residues strided into its
// lane. Every step runs as many columns as the shortest remaining subject
// has, rounded up to whole blocks: the at most block-1 columns past a
// subject's end are idle ones, whose diagonal term G < H' cannot raise the
// lane's maximum, so the score stays exact.
func newLanePlan(db *seq.Set, lanes, block int) *lanePlan {
	// Longest class first: at[c] is where class c starts in order.
	var at [bits.UintSize + 1]int
	for i := range db.Seqs {
		at[bits.Len(uint(db.Seqs[i].Len()))]++
	}
	n := 0
	for c := bits.UintSize; c > 0; c-- {
		at[c], n = n, n+at[c]
	}
	order := make([]int, n)
	for i := range db.Seqs {
		if c := bits.Len(uint(db.Seqs[i].Len())); c > 0 {
			order[at[c]] = i
			at[c]++
		}
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
	return &lanePlan{db: db, count: db.Len(), steps: steps, stream: stream}
}
