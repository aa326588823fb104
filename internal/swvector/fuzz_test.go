package swvector

import (
	"bytes"
	"slices"
	"testing"

	"swdual/internal/alphabet"
	"swdual/internal/scoring"
	"swdual/internal/seq"
	"swdual/internal/sw"
	"swdual/internal/swpar"
)

// kernelCase is one FuzzKernelsAgree input in decoded form.
type kernelCase struct {
	matrix          uint8 // 0 BLOSUM62, 1 BLOSUM50, 2 scoring.Simple(match, mismatch), 3 asymmetricMatrix(match, mismatch)
	match, mismatch uint8
	gapStart        uint32
	gapExtend       uint32
	query           []byte
	subjects        []byte // residues, subjects separated by fuzzSep
}

// fuzzSep separates subjects in the fuzz input; two in a row make an
// empty subject.
const fuzzSep = 0xFF

const (
	fuzzMaxLen      = 1200  // per sequence: enough to reach 65535 with a strong matrix
	fuzzMaxSubjects = 40    // past the widest kernel's 32 lanes, so they refill
	fuzzMaxGap      = 70000 // past the 16-bit lane ceiling
)

func (c kernelCase) params() sw.Params {
	var m *scoring.Matrix
	switch c.matrix % 4 {
	case 0:
		m = scoring.BLOSUM62
	case 1:
		m = scoring.BLOSUM50
	case 2:
		m = scoring.Simple("fuzz", alphabet.Protein.Len(), alphabet.Protein.Core(), 1+int(c.match%127), -1-int(c.mismatch%100))
	default:
		m = asymmetricMatrix(alphabet.Protein.Len(), c.match, c.mismatch)
	}
	return sw.Params{Matrix: m, Gaps: scoring.Gaps{
		Start:  int(c.gapStart % (fuzzMaxGap + 1)),
		Extend: 1 + int(c.gapExtend%fuzzMaxGap),
	}}
}

// asymmetricMatrix returns an n x n matrix of pseudo-random scores in
// [-1-b%16, 1+a%16], drawn independently on both sides of the diagonal:
// S(x, y) != S(y, x) almost everywhere, so a kernel that swaps query and
// subject when it indexes the matrix disagrees with the oracle.
func asymmetricMatrix(n int, a, b uint8) *scoring.Matrix {
	lo, hi := -1-int(b%16), 1+int(a%16)
	x := uint32(a)<<8 | uint32(b)
	table := make([][]int8, n)
	for i := range table {
		table[i] = make([]int8, n)
		for j := range table[i] {
			x = x*1664525 + 1013904223
			table[i][j] = int8(lo + int(x>>16)%(hi-lo+1))
		}
	}
	m, err := scoring.NewMatrix("fuzz-asym", table)
	if err != nil {
		panic(err)
	}
	return m
}

func (c kernelCase) db() *seq.Set {
	db := seq.NewSet(alphabet.Protein)
	for i, s := range bytes.Split(c.subjects, []byte{fuzzSep}) {
		if i == fuzzMaxSubjects {
			break
		}
		db.AddEncoded("s", "", clampResidues(s, fuzzMaxLen))
	}
	return db
}

// ceilingCase builds a seed whose first subject scores exactly score
// against the query (both are the same self-scoring sequence), beside an
// empty subject and two weak ones.
func ceilingCase(c kernelCase, score int) kernelCase {
	q := selfScoring(c.params().Matrix, score)
	c.query = q
	c.subjects = slices.Concat(q, []byte{fuzzSep, fuzzSep}, q[:len(q)/2], []byte{fuzzSep}, q[len(q)/3:])
	return c
}

// ceilingSeeds land exactly on and either side of each escalation
// threshold: 127-K of the guard-bit SWAR lanes, 255 - max S - K of the
// AVX2 lanes, 255-bias of the 8-bit striped kernel (253-bias to 256-bias)
// and 65535-bias of the 16-bit kernels. want is the first subject's score.
// The AVX2 threshold is also seeded where K is the bias (Gs = 0, Ge = 1
// under BLOSUM62) and where the lanes hold one score only, OpenCost +
// Extend + max S = 254. The 16-bit seeds use match-only matrices whose
// match score divides the target, so 1000 residues reach it; through
// NewInterSeq on an AVX2 machine they land on the pair kernel, which
// answers the first (65533, its last exact score) and hands the other two
// on to sw.Score — as they land on scoreStriped16 through Striped
// everywhere.
func ceilingSeeds() (cases []kernelCase, want []int) {
	add := func(c kernelCase, score int) {
		cases = append(cases, ceilingCase(c, score))
		want = append(want, score)
	}
	for _, c := range []kernelCase{
		{matrix: 0, gapStart: 10, gapExtend: 1}, // BLOSUM62 10/2: K = 14, bias 4, max S 11
		{matrix: 1, gapStart: 0, gapExtend: 3},  // BLOSUM50 Gs=0 Ge=4: K = 8, bias 5, max S 15
	} {
		p := c.params()
		for _, d := range []int{-1, 0, 1} {
			add(c, newInterSeq(p, false).ceiling()+d)
			add(c, newInterSeq(p, true).ceiling()+d)
		}
		for _, d := range []int{-2, -1, 0, 1} {
			add(c, 255+p.Matrix.Min()+d)
		}
	}
	for _, c := range []kernelCase{
		{matrix: 0, gapStart: 0, gapExtend: 0},                              // BLOSUM62 0/1: K = bias = 4, ceiling 240
		{matrix: 2, match: 1 - 1, mismatch: 0, gapStart: 251, gapExtend: 0}, // Simple(1, -1) 251/1: K = 253, ceiling 1
	} {
		ceiling := newInterSeq(c.params(), true).ceiling()
		add(c, ceiling)
		add(c, ceiling+1)
	}
	// Simple(match, -1): bias 1, so the 16-bit ceiling is 65534.
	add(kernelCase{matrix: 2, match: 71 - 1, gapStart: 10, gapExtend: 1}, 923*71)  // 65533
	add(kernelCase{matrix: 2, match: 62 - 1, gapStart: 10, gapExtend: 1}, 1057*62) // 65534
	add(kernelCase{matrix: 2, match: 85 - 1, gapStart: 10, gapExtend: 1}, 771*85)  // 65535
	return cases, want
}

// TestCeilingSeedsLandOnCeilings keeps the fuzz seeds honest: each must
// score what its name says, or it no longer sits on a threshold — and a
// seed past the AVX2 lanes' ceiling under Gs > 0 must be one the pair
// kernel takes (and overflows on exactly from 65535-bias), or the three
// 16-bit seeds no longer exercise the rung they were kept for.
func TestCeilingSeedsLandOnCeilings(t *testing.T) {
	cases, want := ceilingSeeds()
	for i, c := range cases {
		p, d := c.params(), c.db().Seqs[0].Residues
		if got := sw.Score(p, c.query, d); got != want[i] {
			t.Errorf("seed %d (%s): first subject scores %d, want %d", i, p.Matrix.Name(), got, want[i])
		}
		if !hasAVX2 || p.Gaps.Start == 0 || want[i] <= newInterSeq(p, true).ceiling() {
			continue
		}
		got, over, ok := pairScore(p, c.query, d)
		if wantOver := want[i] >= 65535+p.Matrix.Min(); !ok || over != wantOver || (!over && got != want[i]) {
			t.Errorf("seed %d (%s): pair kernel %d, overflow %v, served %v; oracle %d", i, p.Matrix.Name(), got, over, ok, want[i])
		}
	}
}

// FuzzKernelsAgree is the differential fuzzer of every CPU engine, both
// column kernels of the inter-sequence one — each through a fresh engine
// and through its replayed lane plan — and, run on every pair of a case,
// the 16-bit pair kernel that rescues its flagged subjects, against the
// sw.Score oracle: fuzzed matrix choice (an asymmetric one included), gap
// model (Gs == 0 and costs beyond every lane ceiling included), query and
// up to 40 subjects, empty ones included.
func FuzzKernelsAgree(f *testing.F) {
	seeds, _ := ceilingSeeds()
	q := alphabet.Protein.MustEncode("MKWVTFISLLFLFSSAYSRGVFRRDAHKSEVAHRFKDLGEENFK")
	some := slices.Concat(q[3:30], []byte{fuzzSep}, q[10:], []byte{fuzzSep, fuzzSep}, q[:5], q[9:])
	seeds = append(seeds,
		kernelCase{matrix: 0, gapStart: 10, gapExtend: 1, query: q, subjects: some},
		kernelCase{matrix: 1, gapStart: 0, gapExtend: 3, query: q, subjects: some},                                                    // Gs == 0: exact-F striped path
		kernelCase{matrix: 0, gapStart: 0, gapExtend: 0, query: q, subjects: some},                                                    // K set by the bias
		kernelCase{matrix: 0, gapStart: 250, gapExtend: 9, query: q, subjects: some},                                                  // open cost past 8 bits
		kernelCase{matrix: 0, gapStart: 10, gapExtend: 259, query: q, subjects: some},                                                 // extend cost past 8 bits
		kernelCase{matrix: 0, gapStart: 69999, gapExtend: 1, query: q, subjects: some},                                                // past 16 bits
		kernelCase{matrix: 2, match: 119, mismatch: 2, gapStart: 10, query: q, subjects: some},                                        // no 7-bit range left
		kernelCase{matrix: 2, match: 4, mismatch: 3, gapStart: 3, query: q, subjects: []byte{}},                                       // one empty subject
		kernelCase{matrix: 0, gapStart: 10, gapExtend: 1, query: nil, subjects: q},                                                    // empty query
		kernelCase{matrix: 0, gapStart: 10, gapExtend: 1, query: q, subjects: bytes.Repeat(append(slices.Clone(q[:7]), fuzzSep), 39)}, // refills
		kernelCase{matrix: 3, match: 5, mismatch: 9, gapStart: 3, gapExtend: 0, query: q, subjects: some},                             // S(x, y) != S(y, x)
		kernelCase{matrix: 3, match: 200, mismatch: 1, gapStart: 0, gapExtend: 1, query: q[:20], subjects: some},                      // asymmetric and mostly positive: lanes overflow
	)
	// 40 self-matches of 283 against a lane ceiling of 230: every subject is
	// flagged in one call, so the pair kernel's profile is reused 40 times,
	// and its pooled scratch across the engines and execs that follow.
	self := selfScoring(scoring.BLOSUM62, 283)
	seeds = append(seeds, kernelCase{matrix: 0, gapStart: 10, gapExtend: 1, query: self, subjects: bytes.Repeat(append(slices.Clone(self), fuzzSep), 40)})
	// 75 segments of 16 lanes, the planted half far past the lanes' ceiling.
	long := bytes.Repeat(q, 28)[:fuzzMaxLen]
	seeds = append(seeds, kernelCase{matrix: 1, gapStart: 12, gapExtend: 1, query: long, subjects: slices.Concat(long[300:900], []byte{fuzzSep}, q)})
	for _, c := range seeds {
		f.Add(c.matrix, c.match, c.mismatch, c.gapStart, c.gapExtend, c.query, c.subjects)
	}
	f.Fuzz(func(t *testing.T, matrix, match, mismatch uint8, gapStart, gapExtend uint32, query, subjects []byte) {
		c := kernelCase{matrix, match, mismatch, gapStart, gapExtend, clampResidues(query, fuzzMaxLen), subjects}
		p, db := c.params(), c.db()
		want := make([]int, db.Len())
		for i := range db.Seqs {
			want[i] = sw.Score(p, c.query, db.Seqs[i].Residues)
		}
		// NewInterSeq is the dispatching engine; newInterSeq(p, false) is
		// the SWAR column it falls back to, which an AVX2 machine would
		// otherwise never run. Each InterSeq scores the case twice: the
		// fresh engine builds the lane plan, the second call replays it.
		for _, eng := range []sw.Engine{
			sw.NewScalar(p), NewInterSeq(p), newInterSeq(p, false), NewStriped(p), swpar.NewEngine(p, swpar.Config{}),
		} {
			calls := 1
			if _, ok := eng.(*InterSeq); ok {
				calls = 2
			}
			for call := 1; call <= calls; call++ {
				if got := eng.Scores(c.query, db); !slices.Equal(got, want) {
					t.Fatalf("%s call %d disagrees with sw.Score under %s %+v:\n got  %v\n want %v", eng.Name(), call, p.Matrix.Name(), p.Gaps, got, want)
				}
			}
		}
		if !hasAVX2 {
			return
		}
		// The pair kernel on every pair, not only the flagged ones: one
		// profile, reused. It serves exactly the AVX2 column's parameter
		// sets with Gs > 0; the rest must be routed to the oracle.
		bias := max(0, -p.Matrix.Min())
		tab := newAVX2Tables(p)
		if served := tab != nil && tab.pairExact; served != (p.Gaps.Start > 0 && bias+p.Matrix.Max() < 255) {
			t.Fatalf("pair kernel serves %s %+v = %v", p.Matrix.Name(), p.Gaps, served)
		} else if !served {
			return
		}
		k := newPairKernel(tab, c.query)
		defer k.release()
		for i := range db.Seqs {
			if got, over := k.score(db.Seqs[i].Residues); over != (want[i] >= 65535-bias) || (!over && got != want[i]) {
				t.Fatalf("pair kernel scores subject %d %d (overflow %v) under %s %+v, oracle %d", i, got, over, p.Matrix.Name(), p.Gaps, want[i])
			}
		}
	})
}
