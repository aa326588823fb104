package swvector

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"swdual/internal/alphabet"
	"swdual/internal/scoring"
	"swdual/internal/seq"
	"swdual/internal/sw"
	"swdual/internal/synth"
)

// benchCorpus is the benchmark's corpus (benchmark/inputs.go): 300
// log-normal lengths, the longest 2 217 residues.
func benchCorpus() *seq.Set {
	return synth.DBSpec{Name: "bench", Count: 300, MeanLen: 360, Sigma: 0.6, MinLen: 20, MaxLen: 4000, Seed: 1}.Generate()
}

func longest(db *seq.Set) []byte {
	return slices.MaxFunc(db.Seqs, func(a, b seq.Sequence) int { return a.Len() - b.Len() }).Residues
}

// mutated returns a copy of s with about one residue in ten substituted,
// deleted or followed by an insertion.
func mutated(rng *rand.Rand, s []byte) []byte {
	out := make([]byte, 0, len(s)+len(s)/10)
	for _, r := range s {
		switch rng.Intn(30) {
		case 0:
			out = append(out, byte(rng.Intn(alphabet.Protein.Core())))
		case 1:
		case 2:
			out = append(out, r, byte(rng.Intn(alphabet.Protein.Core())))
		default:
			out = append(out, r)
		}
	}
	return out
}

// pairScore runs the pair kernel alone, as the rung's first flagged
// subject of a Scores call would: profile build included. ok is false
// when the parameters are not the kernel's to serve and the rung goes to
// the oracle instead.
func pairScore(p sw.Params, query, subject []byte) (score int, overflow, ok bool) {
	t := newAVX2Tables(p)
	if t == nil || !t.pairExact {
		return 0, false, false
	}
	k := newPairKernel(t, query)
	defer k.release()
	score, overflow = k.score(subject)
	return score, overflow, true
}

func skipWithoutAVX2(t *testing.T) {
	t.Helper()
	if !hasAVX2 {
		t.Skip("this CPU has no AVX2: the rescue rung is sw.Score and the pair kernel cannot run")
	}
}

// TestPairKernelMatchesOracle is the pair kernel's table: query lengths
// either side of every segment-count edge, subjects from one residue to
// the corpus' longest, gap models up to costs that clamp, symmetric and
// asymmetric matrices. It must equal both sw.Score and scoreStriped16,
// the recurrence it vectorizes.
func TestPairKernelMatchesOracle(t *testing.T) {
	skipWithoutAVX2(t)
	rng := rand.New(rand.NewSource(61))
	long := longest(benchCorpus())
	if len(long) != 2217 {
		t.Fatalf("the corpus' longest sequence has %d residues, the table was written for 2217", len(long))
	}
	for _, m := range []*scoring.Matrix{scoring.BLOSUM62, scoring.BLOSUM50, asymmetricMatrix(alphabet.Protein.Len(), 11, 6)} {
		for _, gaps := range []scoring.Gaps{{Start: 10, Extend: 2}, {Start: 3, Extend: 0}, {Start: 250, Extend: 9}, {Start: 70000, Extend: 2}} {
			p := sw.Params{Matrix: m, Gaps: gaps}
			for _, n := range []int{1, 15, 16, 17, 31, 32, 33, 271, 480} {
				q := randSeq(rng, n)
				p16 := scoring.NewStripedProfile16(m, q)
				for name, d := range map[string][]byte{"one": q[:1], "long": long, "mutated": mutated(rng, q), "self": q} {
					want := sw.Score(p, q, d)
					if ref, over := scoreStriped16(p16, gaps, d); ref != want || over {
						t.Fatalf("scoreStriped16 = %d (overflow %v), oracle %d", ref, over, want)
					}
					if got, over, ok := pairScore(p, q, d); got != want || over || !ok {
						t.Fatalf("%s %+v |q|=%d subject %s: pair kernel %d (overflow %v, served %v), oracle %d", m.Name(), gaps, n, name, got, over, ok, want)
					}
				}
			}
		}
	}
}

// TestPairKernelRoutedToOracle names the parameter sets the rung must
// hand to sw.Score without computing anything: Gaps.Start == 0, where
// the lazy-F early exit is not exact, negative gap penalties, and a
// matrix the lanes cannot bias. (bias + max(matrix) >= 65535 cannot be
// built from an int8 matrix; 255, which the tables refuse, stands in.)
func TestPairKernelRoutedToOracle(t *testing.T) {
	core := alphabet.Protein.Core()
	q := randSeq(rand.New(rand.NewSource(67)), 300)
	db := seq.NewSet(alphabet.Protein)
	db.AddEncoded("self", "", q)
	db.AddEncoded("weak", "", q[:9])
	for _, p := range []sw.Params{
		{Matrix: scoring.BLOSUM62, Gaps: scoring.Gaps{Start: 0, Extend: 2}},
		{Matrix: scoring.BLOSUM62, Gaps: scoring.Gaps{Start: 0, Extend: 0}},
		{Matrix: scoring.BLOSUM62, Gaps: scoring.Gaps{Start: -1, Extend: 2}},
		{Matrix: scoring.BLOSUM62, Gaps: scoring.Gaps{Start: 10, Extend: -1}},
		{Matrix: scoring.Simple("full", alphabet.Protein.Len(), core, 127, -128), Gaps: scoring.DefaultGaps},
	} {
		if _, _, ok := pairScore(p, q, q); ok {
			t.Errorf("%s %+v: the pair kernel serves it", p.Matrix.Name(), p.Gaps)
		}
		checkAgainstOracle(t, p, NewInterSeq(p), q, db)
	}
}

// TestPairKernelEdges: empty sequences score 0 without entering the
// assembler, a subject residue the profile has no row for is refused
// before the assembler multiplies by it, and the overflow test is
// max >= 65535 - bias from both sides.
func TestPairKernelEdges(t *testing.T) {
	skipWithoutAVX2(t)
	p := params()
	q := randSeq(rand.New(rand.NewSource(71)), 40)
	for _, tc := range [][2][]byte{{nil, q}, {q, nil}, {nil, nil}} {
		if s, over, _ := pairScore(p, tc[0], tc[1]); s != 0 || over {
			t.Errorf("|q|=%d |d|=%d: score %d overflow %v, want 0 false", len(tc[0]), len(tc[1]), s, over)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("subject residue 32 was not refused")
			}
		}()
		pairScore(p, q, []byte{3, 32, 4})
	}()
	// Simple(match, -1) has bias 1: 65533 is the last exact score.
	for _, tc := range []struct{ match, n int }{{71, 923}, {62, 1057}, {85, 771}} {
		p := sw.Params{Matrix: scoring.Simple("m", alphabet.Protein.Len(), alphabet.Protein.Core(), tc.match, -1), Gaps: scoring.DefaultGaps}
		self := make([]byte, tc.n)
		want := tc.match * tc.n
		if got, over, _ := pairScore(p, self, self); over != (want >= 65534) || (!over && got != want) {
			t.Errorf("self score %d: pair kernel %d, overflow %v", want, got, over)
		}
		db := seq.NewSet(alphabet.Protein)
		db.AddEncoded("self", "", self)
		checkAgainstOracle(t, p, NewInterSeq(p), self, db)
	}
}

// plantedQuery is a benchmark-shaped query (benchmark/inputs.go): n
// uniform residues with a 10 %-mutated copy of a segment of db's subject
// src, 2n/5 long, in the middle.
func plantedQuery(rng *rand.Rand, db *seq.Set, src, n int) []byte {
	q := randSeq(rng, n)
	from := db.Seqs[src].Residues
	seg := min(n*2/5, len(from))
	off := rng.Intn(len(from) - seg + 1)
	for i := 0; i < seg; i++ {
		if rng.Intn(10) != 0 {
			q[(n-seg)/2+i] = from[off+i]
		}
	}
	return q
}

// TestInterSeqRescuesPlantedHomolog drives the rung through the engine:
// a benchmark-shaped query flags exactly its planted homolog, whose
// score is past the lanes' ceiling, and every subject equals the oracle.
func TestInterSeqRescuesPlantedHomolog(t *testing.T) {
	skipWithoutAVX2(t)
	p := params()
	e := NewInterSeq(p)
	db := benchCorpus()
	rng := rand.New(rand.NewSource(73))
	for _, n := range []int{240, 270, 480} {
		src := rng.Intn(db.Len())
		q := plantedQuery(rng, db, src, n)
		if got := flaggedBy(e, q, db); !slices.Equal(got, []int{src}) {
			t.Fatalf("|q|=%d planted in %d: flagged %v", n, src, got)
		}
		if s := sw.Score(p, q, db.Seqs[src].Residues); s <= e.ceiling() {
			t.Fatalf("|q|=%d: the planted homolog scores %d, inside the lanes' %d", n, s, e.ceiling())
		}
		checkAgainstOracle(t, p, e, q, db)
	}
}

func BenchmarkPairKernel(b *testing.B) {
	if !hasAVX2 {
		b.Skip("this CPU has no AVX2")
	}
	p := params()
	db := benchCorpus()
	rng := rand.New(rand.NewSource(79))
	for _, n := range []int{160, 270, 480} {
		src := rng.Intn(db.Len())
		q, d := plantedQuery(rng, db, src, n), db.Seqs[src].Residues
		b.Run(fmt.Sprintf("q%d_d%d", n, len(d)), func(b *testing.B) {
			b.SetBytes(int64(len(q) * len(d))) // MB/s reads as Mcell/s
			for b.Loop() {
				pairScore(p, q, d)
			}
		})
	}
}

// BenchmarkLaneSlotRates sizes pairSlots: the AVX2 column's rate over
// every slot of the benchmark corpus' plan, idle ones included (MB/s
// reads as Mslot/s), against the pair kernel's on the corpus' longest
// subject (MB/s reads as Mcell/s, the profile built once as a task
// builds it once for all it hands on), at a short and a typical query.
// The queries are uniform residues, so no subject is flagged and the
// column runs alone.
func BenchmarkLaneSlotRates(b *testing.B) {
	if !hasAVX2 {
		b.Skip("this CPU has no AVX2")
	}
	p := params()
	db := benchCorpus()
	plan := newLanePlan(db, avx2Lanes, avx2Block, false)
	long := longest(db)
	rng := rand.New(rand.NewSource(89))
	for _, n := range []int{32, 270} {
		q := randSeq(rng, n)
		b.Run(fmt.Sprintf("column/q%d", n), func(b *testing.B) {
			e := newInterSeq(p, true)
			if flagged := flaggedBy(e, q, db); len(flagged) != 0 {
				b.Fatalf("flagged %v", flagged)
			}
			b.SetBytes(int64(n * len(plan.stream)))
			for b.Loop() {
				e.Scores(q, db)
			}
		})
		b.Run(fmt.Sprintf("pair/q%d", n), func(b *testing.B) {
			k := newPairKernel(newAVX2Tables(p), q)
			defer k.release()
			b.SetBytes(int64(n * len(long)))
			for b.Loop() {
				k.score(long)
			}
		})
	}
}

// BenchmarkInterSeq times whole tasks — lane driver, column kernel and the
// rescue of the planted homolog — on the benchmark's corpus, one thread.
func BenchmarkInterSeq(b *testing.B) {
	p := params()
	db := benchCorpus()
	rng := rand.New(rand.NewSource(83))
	for _, n := range []int{120, 270, 480} {
		q := plantedQuery(rng, db, rng.Intn(db.Len()), n)
		for _, e := range interSeqs(p) {
			b.Run(fmt.Sprintf("%s/q%d", e.Name(), n), func(b *testing.B) {
				b.SetBytes(int64(n) * db.TotalResidues()) // MB/s reads as Mcell/s
				for b.Loop() {
					e.Scores(q, db)
				}
			})
		}
	}
}

// BenchmarkInterSeqShortQuery times a task whose cells are few, a
// 20-residue query against the benchmark's corpus, so that what a task
// pays besides its cells shows.
func BenchmarkInterSeqShortQuery(b *testing.B) {
	db := benchCorpus()
	q := randSeq(rand.New(rand.NewSource(109)), 20)
	for _, e := range interSeqs(params()) {
		b.Run(e.Name(), func(b *testing.B) {
			b.SetBytes(int64(len(q)) * db.TotalResidues()) // MB/s reads as Mcell/s
			for b.Loop() {
				e.Scores(q, db)
			}
		})
	}
}
