package sw

import (
	"math/rand"
	"testing"
	"testing/quick"

	"swdual/internal/alphabet"
	"swdual/internal/scoring"
	"swdual/internal/synth"
)

func params() Params { return DefaultParams() }

func randSeq(rng *rand.Rand, n int) []byte {
	s := make([]byte, n)
	for i := range s {
		s[i] = byte(rng.Intn(alphabet.Protein.Core()))
	}
	return s
}

func enc(s string) []byte { return alphabet.Protein.MustEncode(s) }

func TestScoreKnownCases(t *testing.T) {
	p := params()
	// Identical sequences: ungapped diagonal alignment = self score.
	q := enc("MKWVTFISLL")
	if got, want := Score(p, q, q), p.Matrix.SelfScore(q); got != want {
		t.Fatalf("self alignment %d, want %d", got, want)
	}
	// Empty sequences score zero.
	if Score(p, nil, q) != 0 || Score(p, q, nil) != 0 {
		t.Fatal("empty sequence must score 0")
	}
	// Completely dissimilar single residues: local alignment floors at 0
	// unless the substitution is positive.
	w := enc("W")
	c := enc("C")
	if got := Score(p, w, c); got != 0 {
		t.Fatalf("W vs C scored %d, want 0 (BLOSUM62 W/C = -2)", got)
	}
}

func TestScoreGapExample(t *testing.T) {
	p := params()
	// Deleting one residue from a sequence: the optimal local alignment
	// bridges the deletion with a single one-column gap, scoring the
	// shared residues minus one gap open (Gs + Ge). The ungapped
	// alternatives (common prefix/suffix blocks) score far less for this
	// construction.
	full := enc("MKWVTFISLLLLFSSAYSRGVFRR")
	gapped := append(append([]byte{}, full[:10]...), full[11:]...)
	want := p.Matrix.SelfScore(gapped) - p.Gaps.OpenCost()
	if got := Score(p, full, gapped); got != want {
		t.Fatalf("gapped alignment %d, want %d", got, want)
	}
}

func TestScoreLinearMatchesPaperExample(t *testing.T) {
	// The paper's Figure 1 scoring (+1/-1/-2) on DNA, global-style values
	// differ, but the local score of the example sequences is easy to
	// verify by hand: ACTTGTCCG vs ATTGTCAG, best local block. Eq. (1)'s
	// linear gap penalty g is the affine model with Gs = 0, Ge = g.
	p := Params{Matrix: scoring.DNASimple, Gaps: scoring.Gaps{Start: 0, Extend: 2}}
	s := alphabet.DNA.MustEncode("ACTTGTCCG")
	u := alphabet.DNA.MustEncode("ATTGTCAG")
	got := Score(p, s, u)
	// TTGTC aligns exactly: +5.
	if got < 5 {
		t.Fatalf("linear-gap local score %d, want >= 5", got)
	}
}

func TestScoreSymmetry(t *testing.T) {
	p := params()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		a := randSeq(rng, 1+rng.Intn(80))
		b := randSeq(rng, 1+rng.Intn(80))
		if Score(p, a, b) != Score(p, b, a) {
			t.Fatalf("asymmetric score for |a|=%d |b|=%d", len(a), len(b))
		}
	}
}

func TestScoreMonotoneUnderExtension(t *testing.T) {
	// Appending residues to either sequence can only preserve or improve
	// a local alignment score.
	p := params()
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 60; i++ {
		a := randSeq(rng, 1+rng.Intn(60))
		b := randSeq(rng, 1+rng.Intn(60))
		base := Score(p, a, b)
		ext := append(append([]byte{}, b...), randSeq(rng, 1+rng.Intn(20))...)
		if got := Score(p, a, ext); got < base {
			t.Fatalf("extension decreased score: %d < %d", got, base)
		}
	}
}

func TestAlignTracebackConsistency(t *testing.T) {
	p := params()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 80; i++ {
		a := randSeq(rng, 1+rng.Intn(60))
		b := randSeq(rng, 1+rng.Intn(60))
		al := Align(p, a, b)
		if want := Score(p, a, b); al.Score != want {
			t.Fatalf("align score %d != %d", al.Score, want)
		}
		if al.Score == 0 {
			continue
		}
		// Recompute the score from the alignment rows.
		got := 0
		gapOpen := true
		qi, si := al.QueryStart, al.SubjStart
		for col := range al.QueryRow {
			qc, sc := al.QueryRow[col], al.SubjRow[col]
			switch {
			case qc == GapCode:
				if gapOpen {
					got -= p.Gaps.Start
				}
				got -= p.Gaps.Extend
				gapOpen = false
				si++
			case sc == GapCode:
				if gapOpen {
					got -= p.Gaps.Start
				}
				got -= p.Gaps.Extend
				gapOpen = false
				qi++
			default:
				got += p.Matrix.Score(qc, sc)
				gapOpen = true
				qi++
				si++
			}
		}
		if got != al.Score {
			t.Fatalf("traceback rows rescore to %d, reported %d", got, al.Score)
		}
		if qi != al.QueryEnd || si != al.SubjEnd {
			t.Fatalf("coordinates inconsistent: (%d,%d) vs (%d,%d)", qi, si, al.QueryEnd, al.SubjEnd)
		}
	}
}

func TestAlignGapRunsStayAffine(t *testing.T) {
	// The traceback must not rescore a gap run as repeated opens: check a
	// construction with a known 3-residue gap.
	p := params()
	a := enc("MKWVTFISLLAAAFSSAYSRGVFRR")
	b := append(append([]byte{}, a[:10]...), a[13:]...) // delete AAA
	al := Align(p, a, b)
	want := Score(p, a, b)
	if al.Score != want {
		t.Fatalf("align %d want %d", al.Score, want)
	}
	if al.Gaps != 0 && al.CIGAR() == "" {
		t.Fatal("missing CIGAR")
	}
}

func TestAlignmentRendering(t *testing.T) {
	p := params()
	a := enc("MKWVTFISLL")
	al := Align(p, a, a)
	if al.Identity() != 1.0 {
		t.Fatalf("identity %v", al.Identity())
	}
	if al.CIGAR() != "10M" {
		t.Fatalf("CIGAR %q", al.CIGAR())
	}
	text := al.Format(alphabet.Protein)
	if text == "" {
		t.Fatal("empty rendering")
	}
	empty := &Alignment{}
	if empty.Identity() != 0 || len(empty.QueryRow) != 0 {
		t.Fatal("empty alignment accessors")
	}
}

// TestEnginesAgree: the reference engine is Score applied to every
// database sequence, in database order.
func TestEnginesAgree(t *testing.T) {
	p := params()
	db := synth.RandomSet(alphabet.Protein, 20, 1, 120, 9)
	q := randSeq(rand.New(rand.NewSource(10)), 70)
	scores := NewScalar(p).Scores(q, db)
	if len(scores) != db.Len() {
		t.Fatalf("%d scores for %d sequences", len(scores), db.Len())
	}
	for i := range scores {
		if want := Score(p, q, db.Seqs[i].Residues); scores[i] != want {
			t.Fatalf("engine disagreement at %d: %d vs %d", i, scores[i], want)
		}
	}
	if NewScalar(p).Name() == "" {
		t.Fatal("engines must be named")
	}
}

func TestCellsHelpers(t *testing.T) {
	db := synth.RandomSet(alphabet.Protein, 3, 10, 10, 11)
	if SetCells(5, db) != 150 {
		t.Fatalf("SetCells %d", SetCells(5, db))
	}
}

// Property: local alignment scores are non-negative, bounded by the
// shorter self-score plus slack... the simplest sound upper bound is the
// max matrix entry times the shorter length.
func TestQuickScoreBounds(t *testing.T) {
	p := params()
	maxEntry := p.Matrix.Max()
	f := func(ar, br []byte) bool {
		a := clamp(ar, 90)
		b := clamp(br, 90)
		s := Score(p, a, b)
		if s < 0 {
			return false
		}
		short := len(a)
		if len(b) < short {
			short = len(b)
		}
		return s <= maxEntry*short
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: concatenating database sequences never lowers the local
// score against a fixed query (a local alignment of a part is a local
// alignment of the whole).
func TestQuickConcatenationMonotone(t *testing.T) {
	p := params()
	f := func(qr, b1, b2 []byte) bool {
		q := clamp(qr, 60)
		x := clamp(b1, 60)
		y := clamp(b2, 60)
		if len(q) == 0 {
			return true
		}
		xy := append(append([]byte{}, x...), y...)
		s := Score(p, q, xy)
		return s >= Score(p, q, x) && s >= Score(p, q, y)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func clamp(b []byte, maxLen int) []byte {
	if len(b) > maxLen {
		b = b[:maxLen]
	}
	out := make([]byte, len(b))
	for i, v := range b {
		out[i] = v % byte(alphabet.Protein.Len())
	}
	return out
}
