package swvector

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"swdual/internal/alphabet"
	"swdual/internal/scoring"
	"swdual/internal/seq"
	"swdual/internal/sw"
	"swdual/internal/swpar"
	"swdual/internal/synth"
)

// TestGuardLanePrimitives checks max7 and anyGT7 over all 128 x 128
// value pairs in every lane position, with the seven other lanes holding
// pairs that vary with the pair under test, so a borrow or carry leaking
// across a lane boundary shows up in a neighbour.
func TestGuardLanePrimitives(t *testing.T) {
	for l := 0; l < scoring.Lanes8; l++ {
		for x := 0; x < 128; x++ {
			for y := 0; y < 128; y++ {
				var a, b, wantMax uint64
				wantGT := false
				for o := 0; o < scoring.Lanes8; o++ {
					av, bv := uint8((x*7+o*29+y)&0x7F), uint8((y*13+o*53+x)&0x7F)
					if o == l {
						av, bv = uint8(x), uint8(y)
					}
					a = withByte(a, o, av)
					b = withByte(b, o, bv)
					wantMax = withByte(wantMax, o, max(av, bv))
					wantGT = wantGT || av > bv
				}
				if got := max7(a, b); got != wantMax {
					t.Fatalf("lane %d: max7(%016x,%016x)=%016x want %016x", l, a, b, got, wantMax)
				}
				if got := anyGT7(a, b); got != wantGT {
					t.Fatalf("lane %d: anyGT7(%016x,%016x)=%v want %v", l, a, b, got, wantGT)
				}
			}
		}
	}
}

func TestTranspose8x8(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for iter := 0; iter < 200; iter++ {
		var in, want [8]uint64
		for i := range in {
			in[i] = rng.Uint64()
		}
		for i := range in {
			for j := range in {
				want[j] = withByte(want[j], i, byteAt(in[i], j))
			}
		}
		got := in
		transpose8x8(&got)
		if got != want {
			t.Fatalf("transpose8x8(%016x) = %016x, want %016x", in, got, want)
		}
	}
}

// selfScoring returns a sequence of core residues whose gap-free
// alignment with itself scores exactly target under m — and, since the
// built-in matrices are diagonally dominant, whose Smith-Waterman score
// against itself is target too. It panics if no such sequence exists.
func selfScoring(m *scoring.Matrix, target int) []byte {
	// Coin change over the diagonal: via[s] is the last residue of some
	// sequence summing to s.
	via := make([]int, target+1)
	for s := 1; s <= target; s++ {
		via[s] = -1
		for r := 0; r < alphabet.Protein.Core(); r++ {
			if d := m.Score(byte(r), byte(r)); d > 0 && d <= s && via[s-d] >= 0 {
				via[s] = r
				break
			}
		}
	}
	if via[target] < 0 {
		panic(fmt.Sprintf("no sequence self-scores %d under %s", target, m.Name()))
	}
	var out []byte
	for s := target; s > 0; s -= m.Score(out[len(out)-1], out[len(out)-1]) {
		out = append(out, byte(via[s]))
	}
	return out
}

// lanes and ceiling describe the column kernel an engine was built on: how
// many subjects it aligns at once and the largest score a lane holds
// exactly.
func (e *InterSeq) lanes() int {
	if e.vector {
		return avx2Lanes
	}
	return scoring.Lanes8
}

func (e *InterSeq) ceiling() int {
	if e.vector {
		return e.avx2.limit - int(e.avx2.consts[0])
	}
	return 127 - e.swar.offset
}

// oracleOnly reports whether the parameters left the engine's kernel no
// usable lane range.
func (e *InterSeq) oracleOnly() bool { return e.avx2 == nil && e.swar == nil }

// flaggedBy runs the inter-sequence kernel alone and returns the subject
// indexes it retired with the overflow flag set, in database order. The
// subjects its plan routed past the lanes are not among them (routedBy).
func flaggedBy(e *InterSeq, query []byte, db *seq.Set) []int {
	handed := e.scoreLanes(query, db, make([]int, db.Len()))
	flagged := slices.Clone(handed[:len(handed)-len(routedBy(e, db))])
	slices.Sort(flagged)
	return flagged
}

// routedBy returns the subjects the engine's lane plan of db leaves to the
// pair kernel, in database order: none when its column has no range and
// no plan is built.
func routedBy(e *InterSeq, db *seq.Set) []int {
	if e.avx2 != nil && !e.avx2.column {
		return nil
	}
	block := 1
	if e.vector {
		block = avx2Block
	}
	routed := slices.Clone(e.planFor(db, e.lanes(), block).routed)
	slices.Sort(routed)
	return routed
}

// columnOnly turns the engine's route to the pair kernel off before it
// plans anything, so that every subject stays in the lanes: for the tests
// aimed at the column on sets small enough that the route would take
// their longest subjects, or all of them.
func columnOnly(e *InterSeq) *InterSeq {
	e.route = false
	return e
}

func checkAgainstOracle(t *testing.T, p sw.Params, eng sw.Engine, query []byte, db *seq.Set) {
	t.Helper()
	got := eng.Scores(query, db)
	for i := range db.Seqs {
		if want := sw.Score(p, query, db.Seqs[i].Residues); got[i] != want {
			t.Fatalf("%s seq %d (|q|=%d |d|=%d): got %d want %d", eng.Name(), i, len(query), db.Seqs[i].Len(), got[i], want)
		}
	}
}

// positiveMatrix is an all-positive matrix — bias 0, so K is set by the gap
// costs alone — whose diagonal (2, 3 or 4) dominates its rows of 1.
func positiveMatrix() *scoring.Matrix {
	table := make([][]int8, alphabet.Protein.Len())
	for i := range table {
		table[i] = slices.Repeat([]int8{1}, len(table))
		table[i][i] = int8(2 + i%3)
	}
	m, err := scoring.NewMatrix("positive", table)
	if err != nil {
		panic(err)
	}
	return m
}

// TestInterSeqOverflowRescore pins each kernel's escalation threshold —
// 127-K under the SWAR column, 255 - max S - K under the AVX2 one, written
// out per parameter set — from both sides: a subject scoring exactly the
// ceiling stays in its lane, one scoring a point more retires flagged.
// Then it runs a self-match far beyond it. Either way the engine's answer
// is the oracle's.
func TestInterSeqOverflowRescore(t *testing.T) {
	eachKernel(t, func(t *testing.T, newEngine func(sw.Params) *InterSeq) {
		for _, tc := range []struct {
			p          sw.Params
			swar, avx2 int // the ceilings
		}{
			{params(), 113, 230}, // K = 14, bias 4, max S 11
			{sw.Params{Matrix: scoring.BLOSUM50, Gaps: scoring.Gaps{Start: 0, Extend: 4}}, 119, 232}, // Gs == 0, K = 8, bias 5, max S 15
			{sw.Params{Matrix: scoring.BLOSUM62, Gaps: scoring.Gaps{Start: 0, Extend: 1}}, 123, 240}, // K = bias = 4 > OpenCost+Extend
			{sw.Params{Matrix: positiveMatrix(), Gaps: scoring.Gaps{Start: 5, Extend: 3}}, 116, 240}, // bias 0: K = 11 from the gaps, max S 4
		} {
			p, e := tc.p, columnOnly(newEngine(tc.p))
			if e.oracleOnly() {
				t.Fatalf("%s %+v: lanes unexpectedly without range", p.Matrix.Name(), p.Gaps)
			}
			ceiling, want := e.ceiling(), tc.swar
			if e.vector {
				want = tc.avx2
			}
			if ceiling != want {
				t.Fatalf("%s %s %+v: ceiling %d, want %d", e.Name(), p.Matrix.Name(), p.Gaps, ceiling, want)
			}
			for _, score := range []int{ceiling - 1, ceiling, ceiling + 1} {
				q := selfScoring(p.Matrix, score)
				db := seq.NewSet(alphabet.Protein)
				db.AddEncoded("short", "", q[:2])
				db.AddEncoded("self", "", q)
				db.AddEncoded("short2", "", q[1:3])
				if got := sw.Score(p, q, q); got != score {
					t.Fatalf("self score %d, built for %d", got, score)
				}
				var wantFlagged []int
				if score > ceiling {
					wantFlagged = []int{1}
				}
				if got := flaggedBy(e, q, db); !slices.Equal(got, wantFlagged) {
					t.Fatalf("%s ceiling %d score %d: flagged %v want %v", p.Matrix.Name(), ceiling, score, got, wantFlagged)
				}
				checkAgainstOracle(t, p, e, q, db)
				checkAgainstOracle(t, p, newEngine(p), q, db)
			}
		}
		p := params()
		long := make([]byte, 500)
		for i := range long {
			long[i] = byte(i % 20)
		}
		db := seq.NewSet(alphabet.Protein)
		db.AddEncoded("self", "", long)
		db.AddEncoded("short", "", long[:10])
		checkAgainstOracle(t, p, newEngine(p), long, db)
	})
}

// TestInterSeqNothingPositive: under a matrix with max S <= 0 every score
// is 0 and the AVX2 ceiling is 255 - K, max S counting as 0 — a residue
// code past the matrix scores 0. Nothing is flagged.
func TestInterSeqNothingPositive(t *testing.T) {
	m := scoring.Simple("nothing", alphabet.Protein.Len(), alphabet.Protein.Core(), 0, -2)
	p := sw.Params{Matrix: m, Gaps: scoring.DefaultGaps}
	eachKernel(t, func(t *testing.T, newEngine func(sw.Params) *InterSeq) {
		e := newEngine(p)
		if e.vector && e.ceiling() != 255-14 {
			t.Fatalf("ceiling %d, want %d", e.ceiling(), 255-14)
		}
		rng := rand.New(rand.NewSource(47))
		q := randSeq(rng, 90)
		db := synth.RandomSet(alphabet.Protein, 50, 1, 120, 48)
		db.AddEncoded("self", "", q)
		if got := flaggedBy(e, q, db); len(got) != 0 {
			t.Fatalf("flagged %v", got)
		}
		checkAgainstOracle(t, p, e, q, db)
	})
}

// TestInterSeqBlocks drives the lane driver's rounding to whole blocks
// of columns: subjects of every length 1..41, more than either kernel has
// lanes, so lanes retire at every length mod 4 and are refilled at block
// boundaries behind up to three idle columns; then each length alone in
// the database, the subject a suffix of the query, so that its score is
// reached in its last column and the idle columns behind it must not move
// it.
func TestInterSeqBlocks(t *testing.T) {
	eachKernel(t, func(t *testing.T, newEngine func(sw.Params) *InterSeq) {
		p := params()
		e := newEngine(p)
		rng := rand.New(rand.NewSource(53))
		q := randSeq(rng, 64)
		db := seq.NewSet(alphabet.Protein)
		for _, n := range rng.Perm(82) {
			n = 1 + n%41
			off := rng.Intn(len(q) - n + 1)
			s := slices.Clone(q[off : off+n])
			s[rng.Intn(n)] = byte(rng.Intn(alphabet.Protein.Core()))
			db.AddEncoded("s", "", s)
		}
		checkAgainstOracle(t, p, e, q, db)
		for n := 1; n <= 9; n++ {
			db := seq.NewSet(alphabet.Protein)
			db.AddEncoded("suffix", "", q[len(q)-n:])
			// A subject alone would be routed past the lanes.
			e := columnOnly(newEngine(p))
			if got, want := e.Scores(q, db)[0], p.Matrix.SelfScore(q[len(q)-n:]); got != want {
				t.Fatalf("%s: a suffix of %d residues scores %d, want %d", e.Name(), n, got, want)
			}
		}
	})
}

// TestAVX2ColumnNeedsRoom walks the boundary K + max S = 254 | 255: the
// last parameter set with a column (ceiling 1: only a subject scoring 0
// stays in its lane) and the first without. Without a column — so with
// every gap cost past a byte — every non-empty subject is handed on as
// if flagged, to the pair kernel, which still serves those sets, and the
// answer is the oracle's.
func TestAVX2ColumnNeedsRoom(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	q := randSeq(rng, 50)
	db := seq.NewSet(alphabet.Protein)
	db.AddEncoded("self", "", q)
	db.AddEncoded("empty", "", nil)
	db.AddEncoded("zero", "", []byte{17, 17}) // W, which the query is cleared of whatever scores with
	for i, r := range q {
		if scoring.BLOSUM62.Score(r, 17) > 0 {
			q[i] = 0
		}
	}
	db.AddEncoded("gapped", "", append(slices.Clone(q[:20]), q[24:]...))
	for _, tc := range []struct {
		gaps    scoring.Gaps
		column  bool
		flagged []int
	}{
		{scoring.Gaps{Start: 241, Extend: 1}, true, []int{0, 3}}, // K = 243, + 11 = 254
		{scoring.Gaps{Start: 242, Extend: 1}, false, []int{0, 2, 3}},
		{scoring.Gaps{Start: 250, Extend: 10}, false, []int{0, 2, 3}},
		{scoring.Gaps{Start: 10, Extend: 260}, false, []int{0, 2, 3}},
		{scoring.Gaps{Start: 69999, Extend: 2}, false, []int{0, 2, 3}},
	} {
		p := sw.Params{Matrix: scoring.BLOSUM62, Gaps: tc.gaps}
		e := columnOnly(newInterSeq(p, true))
		if e.avx2.column != tc.column {
			t.Fatalf("%+v: column = %v, want %v", tc.gaps, e.avx2.column, tc.column)
		}
		if !hasAVX2 {
			continue
		}
		if got := flaggedBy(e, q, db); !slices.Equal(got, tc.flagged) {
			t.Fatalf("%+v: flagged %v, want %v", tc.gaps, got, tc.flagged)
		}
		if s, over, ok := pairScore(p, q, q); !ok || over || s != sw.Score(p, q, q) {
			t.Fatalf("%+v: pair kernel %d (overflow %v, served %v)", tc.gaps, s, over, ok)
		}
		checkAgainstOracle(t, p, e, q, db)
		checkAgainstOracle(t, p, newInterSeq(p, true), q, db)
	}
}

// TestInterSeqLaneIsolation saturates one lane — far past the point
// where the SWAR kernel's masked garbage wraps — while its neighbours
// hold low-scoring subjects, in every lane position: the saturated lane
// must be the only one flagged and all scores must equal the oracle.
func TestInterSeqLaneIsolation(t *testing.T) {
	eachKernel(t, func(t *testing.T, newEngine func(sw.Params) *InterSeq) {
		p := params()
		rng := rand.New(rand.NewSource(17))
		long := make([]byte, 300)
		for i := range long {
			long[i] = byte(i % 20)
		}
		for hot := 0; hot < newEngine(p).lanes(); hot++ {
			// A fresh engine a database, its plan without the route: the
			// hot subject may be the longest, and it must stay in its lane.
			e := columnOnly(newEngine(p))
			db := seq.NewSet(alphabet.Protein)
			for l := 0; l < e.lanes(); l++ {
				if l == hot {
					db.AddEncoded("hot", "", long)
				} else {
					db.AddEncoded("cold", "", randSeq(rng, 250+rng.Intn(100)))
				}
			}
			if got := flaggedBy(e, long, db); !slices.Equal(got, []int{hot}) {
				t.Fatalf("hot lane %d: flagged %v", hot, got)
			}
			checkAgainstOracle(t, p, e, long, db)
			checkAgainstOracle(t, p, newEngine(p), long, db)
		}
	})
}

// TestInterSeqDatabaseShapes runs databases around the lane count, with
// empty sequences where the driver primes and refills its lanes.
func TestInterSeqDatabaseShapes(t *testing.T) {
	eachKernel(t, func(t *testing.T, newEngine func(sw.Params) *InterSeq) {
		p := params()
		e := newEngine(p)
		L := e.lanes()
		rng := rand.New(rand.NewSource(23))
		q := randSeq(rng, 60)
		for _, n := range []int{0, 1, L - 1, L, L + 1} {
			// empties are the database indexes that hold an empty sequence:
			// first, last, around the first refill (index L), and in a run.
			for _, empties := range [][]int{nil, {0}, {n}, {0, 1, n + 2}, {L - 1, L, L + 1}} {
				db := seq.NewSet(alphabet.Protein)
				for i, real := 0, 0; real < n || slices.Contains(empties, i); i++ {
					if slices.Contains(empties, i) {
						db.AddEncoded("empty", "", nil)
						continue
					}
					// Unequal lengths, so lanes retire and refill one at a time.
					db.AddEncoded("s", "", randSeq(rng, 5+rng.Intn(40)))
					real++
				}
				checkAgainstOracle(t, p, e, q, db)
			}
		}
	})
}

// oracleScores is sw.Score of query against every subject of db.
func oracleScores(p sw.Params, query []byte, db *seq.Set) []int {
	out := make([]int, db.Len())
	for i := range db.Seqs {
		out[i] = sw.Score(p, query, db.Seqs[i].Residues)
	}
	return out
}

// TestInterSeqPlanSharedAcrossSets scores three databases, interleaved,
// from four goroutines through one engine, as a pool's CPU workers share
// one: every switch of database replaces the engine's plan while other
// calls may be replaying the one before, and every answer must still be
// the oracle's.
func TestInterSeqPlanSharedAcrossSets(t *testing.T) {
	eachKernel(t, func(t *testing.T, newEngine func(sw.Params) *InterSeq) {
		p := params()
		e := newEngine(p)
		rng := rand.New(rand.NewSource(101))
		q := randSeq(rng, 50)
		dbs := []*seq.Set{
			synth.RandomSet(alphabet.Protein, 70, 1, 120, 102),
			synth.RandomSet(alphabet.Protein, 5, 30, 60, 103),
			synth.RandomSet(alphabet.Protein, 40, 100, 200, 104),
		}
		dbs[1].AddEncoded("empty", "", nil)
		want := make([][]int, len(dbs))
		for i, db := range dbs {
			want[i] = oracleScores(p, q, db)
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 12; i++ {
					d := (g + i) % len(dbs)
					if got := e.Scores(q, dbs[d]); !slices.Equal(got, want[d]) {
						t.Errorf("goroutine %d call %d, database %d:\n got  %v\n want %v", g, i, d, got, want[d])
						return
					}
				}
			}()
		}
		wg.Wait()
	})
}

// TestInterSeqPlanFollowsGrowth grows a database the engine has planned —
// inside its capacity, so its Seqs keep their array — and scores it
// again: the plan must be rebuilt, or the new subjects would score 0. A
// second Set over the same sequences is another database too.
func TestInterSeqPlanFollowsGrowth(t *testing.T) {
	eachKernel(t, func(t *testing.T, newEngine func(sw.Params) *InterSeq) {
		p := params()
		e := newEngine(p)
		rng := rand.New(rand.NewSource(105))
		q := randSeq(rng, 60)
		db := seq.NewSet(alphabet.Protein)
		db.Seqs = make([]seq.Sequence, 0, 64)
		for i := 0; i < 20; i++ {
			db.AddEncoded("s", "", randSeq(rng, 10+rng.Intn(50)))
		}
		checkAgainstOracle(t, p, e, q, db)
		before := e.plan
		db.AddEncoded("long", "", randSeq(rng, 300))
		db.AddEncoded("self", "", q)
		db.AddEncoded("empty", "", nil)
		checkAgainstOracle(t, p, e, q, db)
		if e.plan == before || e.plan.count != db.Len() {
			t.Fatalf("the plan of %d subjects served a database grown to %d", before.count, db.Len())
		}
		grown := e.plan
		checkAgainstOracle(t, p, e, q, db.Slice(0, db.Len()))
		if e.plan == grown {
			t.Fatal("a second Set over the same sequences reused the first one's plan")
		}
	})
}

// TestInterSeqPlanShapes covers the plans at the edges: a database of
// empty subjects only, which plans no column, and one whose longest
// subject — the benchmark corpus' 2 217 residues — is longer than all the
// others together. Without the route its lane alone sets the pass's
// length while the others finish and go idle, empty subjects between
// them; with it (AVX2 column, Gs > 0) that subject goes to the pair
// kernel and the lanes plan the others alone. It also pins the benchmark
// corpus' 32-lane plan at 3 404 columns in 143 steps, the occupancy the
// driver's comment states, with nothing routed.
func TestInterSeqPlanShapes(t *testing.T) {
	corpus := benchCorpus()
	for _, route := range []bool{false, true} {
		plan := newLanePlan(corpus, avx2Lanes, avx2Block, route)
		if len(plan.stream) != 108928 || len(plan.steps) != 143 || corpus.TotalResidues() != 106885 {
			t.Fatalf("route %v: the benchmark corpus' %d residues plan into %d slots in %d steps, the comment says 106 885 in 108 928, 143 steps", route, corpus.TotalResidues(), len(plan.stream), len(plan.steps))
		}
		if len(plan.routed) != 0 {
			t.Fatalf("route %v: the benchmark corpus routed %v", route, plan.routed)
		}
	}
	long := longest(corpus)
	eachKernel(t, func(t *testing.T, newEngine func(sw.Params) *InterSeq) {
		p := params()
		e := newEngine(p)
		rng := rand.New(rand.NewSource(107))
		q := plantedQuery(rng, corpus, slices.IndexFunc(corpus.Seqs, func(s seq.Sequence) bool { return s.Len() == len(long) }), 120)
		empty := seq.NewSet(alphabet.Protein)
		for i := 0; i < 5; i++ {
			empty.AddEncoded("empty", "", nil)
		}
		checkAgainstOracle(t, p, e, q, empty)
		if len(e.plan.steps) != 0 || len(e.plan.stream) != 0 || len(e.plan.routed) != 0 {
			t.Fatalf("a database of empty subjects planned %d steps, %d slots, routed %v", len(e.plan.steps), len(e.plan.stream), e.plan.routed)
		}
		db := seq.NewSet(alphabet.Protein)
		others := 0
		for i := 0; i < 3*e.lanes(); i++ {
			if i%7 == 3 {
				db.AddEncoded("empty", "", nil)
				continue
			}
			s := randSeq(rng, 5+rng.Intn(40))
			others += len(s)
			db.AddEncoded("short", "", s)
		}
		db.AddEncoded("long", "", long)
		if others >= len(long) {
			t.Fatalf("the short subjects hold %d residues, the long one only %d", others, len(long))
		}
		block := 1
		if e.vector {
			block = avx2Block
		}
		column := columnOnly(newEngine(p))
		checkAgainstOracle(t, p, column, q, db)
		if cols := (len(long) + block - 1) / block * block; len(column.plan.stream) != cols*e.lanes() {
			t.Fatalf("%d slots, want the long subject's %d columns of %d lanes", len(column.plan.stream), cols, e.lanes())
		}
		checkAgainstOracle(t, p, e, q, db)
		if !e.route {
			if e.vector {
				t.Fatal("the AVX2 engine under BLOSUM62 10/2 plans without the route")
			}
			if len(e.plan.routed) != 0 {
				t.Fatalf("the SWAR engine routed %v", e.plan.routed)
			}
			return
		}
		shorts := newLanePlan(db.Slice(0, db.Len()-1), e.lanes(), block, false)
		if got := routedBy(e, db); !slices.Equal(got, []int{db.Len() - 1}) || len(e.plan.stream) != len(shorts.stream) {
			t.Fatalf("routed %v in %d slots, want the long subject %d routed and the short ones' %d slots", got, len(e.plan.stream), db.Len()-1, len(shorts.stream))
		}
	})
}

// TestLanePlanRoute pins the route's cost rule on the sets it was
// weighed on. Of 60 log-normal subjects (the benchmark corpus' shape),
// one set whose longest subject, 765 residues, is close to its residues
// over 32 lanes (700) routes nothing, and one whose longest two, 1 457
// and 1 375 residues, set the pass's length routes them: 1 460 columns fall
// to 832, and a task runs 0.79x as long at 270 query residues, 0.94x at
// 32. 51 uniform subjects of 1-120 residues, which only look ragged,
// route nothing. The benchmark corpus plus one titin-length subject
// routes that subject alone. A set built on the rule's tie — one subject of
// 8 residues and 39 of 5, where leaving it in the lanes and routing it
// both cost 256 slots — keeps it, while one residue more routes it.
// Engines whose pair kernel cannot follow the column (SWAR, Gs == 0)
// never route.
func TestLanePlanRoute(t *testing.T) {
	withTitin := benchCorpus()
	withTitin.AddEncoded("titin", "", randSeq(rand.New(rand.NewSource(113)), 35000))
	tie := func(long int) *seq.Set {
		db := seq.NewSet(alphabet.Protein)
		for i := 0; i < 40; i++ {
			n := 5
			if i == 17 {
				n = long
			}
			db.AddEncoded("s", "", slices.Repeat([]byte{byte(i % 20)}, n))
		}
		return db
	}
	for _, tc := range []struct {
		name   string
		db     *seq.Set
		routed []int
	}{
		{"log-normal 60, no straggler", synth.DBSpec{Name: "ln", Count: 60, MeanLen: 360, Sigma: 0.6, MinLen: 20, MaxLen: 4000, Seed: 4}.Generate(), nil},
		{"log-normal 60, two stragglers", synth.DBSpec{Name: "ln", Count: 60, MeanLen: 360, Sigma: 0.6, MinLen: 20, MaxLen: 4000, Seed: 7}.Generate(), []int{6, 10}},
		{"uniform 51 of 1-120", synth.RandomSet(alphabet.Protein, 51, 1, 120, 48), nil},
		{"corpus + titin", withTitin, []int{withTitin.Len() - 1}},
		{"tie", tie(8), nil},
		{"past the tie", tie(9), []int{17}},
	} {
		if got := newLanePlan(tc.db, avx2Lanes, avx2Block, true).routed; !slices.Equal(got, tc.routed) {
			t.Errorf("%s: routed %v, want %v", tc.name, got, tc.routed)
		}
	}
	for _, p := range []sw.Params{params(), {Matrix: scoring.BLOSUM62, Gaps: scoring.Gaps{Start: 0, Extend: 2}}} {
		if e := newInterSeq(p, false); e.route {
			t.Errorf("the SWAR engine under %+v plans with the route", p.Gaps)
		}
	}
	if e := newInterSeq(sw.Params{Matrix: scoring.BLOSUM62, Gaps: scoring.Gaps{Start: 0, Extend: 2}}, true); e.route {
		t.Error("the AVX2 engine under Gs == 0 plans with the route")
	}
	if !hasAVX2 {
		return
	}
	p := params()
	q := plantedQuery(rand.New(rand.NewSource(127)), withTitin, withTitin.Len()-1, 120)
	e := NewInterSeq(p)
	checkAgainstOracle(t, p, e, q, withTitin)
	if got := routedBy(e, withTitin); !slices.Equal(got, []int{withTitin.Len() - 1}) {
		t.Fatalf("the engine routed %v", got)
	}
}

// TestInterSeqNarrowLanes covers parameter sets that leave a kernel's
// lanes no usable range: every subject must take the escalation route
// and still equal the oracle.
func TestInterSeqNarrowLanes(t *testing.T) {
	core := alphabet.Protein.Core()
	for _, tc := range []struct {
		p          sw.Params
		swar, avx2 bool // the kernel has no range
	}{
		{sw.Params{Matrix: scoring.Simple("wide", alphabet.Protein.Len(), core, 120, -3), Gaps: scoring.DefaultGaps}, true, false},
		{sw.Params{Matrix: scoring.BLOSUM62, Gaps: scoring.Gaps{Start: 100, Extend: 10}}, true, false},
		{sw.Params{Matrix: scoring.Simple("full", alphabet.Protein.Len(), core, 127, -128), Gaps: scoring.DefaultGaps}, true, true},
		{sw.Params{Matrix: scoring.BLOSUM62, Gaps: scoring.Gaps{Start: -1, Extend: 2}}, true, true},
	} {
		eachKernel(t, func(t *testing.T, newEngine func(sw.Params) *InterSeq) {
			e := newEngine(tc.p)
			want := tc.swar
			if e.vector {
				want = tc.avx2
			}
			if e.oracleOnly() != want {
				t.Fatalf("%s %+v: oracle-only = %v, want %v", tc.p.Matrix.Name(), tc.p.Gaps, e.oracleOnly(), want)
			}
			rng := rand.New(rand.NewSource(29))
			q := randSeq(rng, 70)
			db := seq.NewSet(alphabet.Protein)
			db.AddEncoded("self", "", q)
			db.AddEncoded("empty", "", nil)
			for i := 0; i < 40; i++ {
				db.AddEncoded("s", "", randSeq(rng, 1+rng.Intn(90)))
			}
			checkAgainstOracle(t, tc.p, e, q, db)
		})
	}
}

// TestHugeGapCosts is the regression test for gap costs that do not fit
// a lane: they used to be truncated (uint8(260) = 4, uint16(70002) =
// 4466), so the kernels opened gaps the oracle would not.
func TestHugeGapCosts(t *testing.T) {
	q := alphabet.Protein.MustEncode("MKWVTFISLLFLFSSAYSRGVFRRDAHKSEVAHRFKDLGE")
	// The subject drops 4 residues from the middle of the query: cheap
	// gaps bridge the halves, real ones must not.
	gapped := append(slices.Clone(q[:18]), q[22:]...)
	// Long enough for a bridged score to pass 4466, the truncation of a
	// 70002 open cost in 16-bit lanes.
	long := randSeq(rand.New(rand.NewSource(31)), 2400)
	longGapped := append(slices.Clone(long[:1200]), long[1201:]...)
	for _, tc := range []struct {
		gaps           scoring.Gaps
		query, subject []byte
	}{
		{scoring.Gaps{Start: 250, Extend: 10}, q, gapped},
		{scoring.Gaps{Start: 10, Extend: 260}, q, gapped},
		{scoring.Gaps{Start: 70000, Extend: 2}, long, longGapped},
		{scoring.Gaps{Start: 2, Extend: 70000}, long, longGapped},
	} {
		p := sw.Params{Matrix: scoring.BLOSUM62, Gaps: tc.gaps}
		db := seq.NewSet(alphabet.Protein)
		db.AddEncoded("gapped", "", tc.subject)
		for _, eng := range append(interSeqs(p), NewStriped(p)) {
			checkAgainstOracle(t, p, eng, tc.query, db)
		}
	}
}

// TestAsymmetricMatrix is the regression test for the vector kernels
// indexing the substitution matrix transposed — row = subject residue,
// where the oracle has row = query residue. Every shipped matrix is
// symmetric, so only a user-supplied one showed it: the kernels used to
// answer 12 here, the score with query and subject swapped.
func TestAsymmetricMatrix(t *testing.T) {
	m, err := scoring.NewMatrix("asym", [][]int8{{2, -3, 5, -1}, {-1, 3, -2, -3}, {-4, 1, 2, 4}, {-2, -2, -1, 3}})
	if err != nil {
		t.Fatal(err)
	}
	p := sw.Params{Matrix: m, Gaps: scoring.Gaps{Start: 2, Extend: 1}}
	q := []byte{0, 0, 2, 1, 3, 0, 2, 2, 1}
	db := seq.NewSet(alphabet.DNA)
	db.AddEncoded("d", "", []byte{2, 2, 3, 1, 0, 2, 3, 3, 1, 0})
	if got := sw.Score(p, q, db.Seqs[0].Residues); got != 31 {
		t.Fatalf("oracle scores %d, the case was built for 31", got)
	}
	for _, eng := range append(interSeqs(p), NewStriped(p), sw.NewScalar(p), swpar.NewEngine(p, swpar.Config{})) {
		checkAgainstOracle(t, p, eng, q, db)
	}
}

// TestAVX2ProfileGather checks the four column profiles avx2Columns
// builds for a block of the stream against the matrix. The four columns
// of a lane hold different residues, and over the 33 blocks every lane
// sees every residue code, the idle code included, in every column, for
// every query code: a layout slip — lane for column, a 128-bit half
// swapped — reads some other cell of an asymmetric matrix.
func TestAVX2ProfileGather(t *testing.T) {
	if !hasAVX2 {
		t.Skip("this CPU has no AVX2")
	}
	m := asymmetricMatrix(32, 5, 9)
	p := sw.Params{Matrix: m, Gaps: scoring.DefaultGaps}
	tab := newAVX2Tables(p)
	// A query holding the largest code makes a block build all 32 rows.
	k := newAVX2Kernel(tab, []byte{31})
	defer k.release()
	stream := make([]byte, avx2Block*avx2Lanes)
	for shift := 0; shift <= idleCode; shift++ {
		for i := range stream {
			c, l := i/avx2Lanes, i%avx2Lanes
			stream[i] = byte((l + 7*c + shift) % (idleCode + 1))
		}
		k.advance(stream)
		for c := range k.prof {
			for q := range k.prof[c] {
				for l, got := range k.prof[c][q] {
					d := stream[c*avx2Lanes+l]
					want := byte(0) // an idle lane: S = -OpenCost
					if d != idleCode {
						want = byte(m.Score(byte(q), d) + p.Gaps.OpenCost())
					}
					if got != want {
						t.Fatalf("prof[column %d][%d][lane %d] with residue %d = %d, want %d", c, q, l, d, got, want)
					}
				}
			}
		}
	}
}

// TestInterSeqDispatch checks that the CPUID answer only chooses the
// column kernel: the engine NewInterSeq builds says which one runs, and
// one built with the vector path forced off returns identical scores,
// through lane overflow and refill.
func TestInterSeqDispatch(t *testing.T) {
	p := params()
	e := NewInterSeq(p)
	want := "interseq-swar"
	if hasAVX2 {
		want = "interseq-avx2"
	}
	if e.Name() != want {
		t.Fatalf("NewInterSeq built %s on a CPU with AVX2 = %v", e.Name(), hasAVX2)
	}
	rng := rand.New(rand.NewSource(43))
	q := randSeq(rng, 200)
	db := synth.RandomSet(alphabet.Protein, 150, 1, 300, 44)
	db.AddEncoded("self", "", q)
	db.AddEncoded("half", "", q[:100])
	if got, want := e.Scores(q, db), newInterSeq(p, false).Scores(q, db); !slices.Equal(got, want) {
		t.Fatalf("%s and the SWAR column disagree:\n got  %v\n want %v", e.Name(), got, want)
	}
}
