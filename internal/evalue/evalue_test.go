package evalue

import (
	"math"
	"testing"
	"testing/quick"

	"swdual/internal/scoring"
)

func TestUngappedLambdaBLOSUM62(t *testing.T) {
	lambda, err := UngappedLambda(scoring.BLOSUM62)
	if err != nil {
		t.Fatal(err)
	}
	// Published ungapped lambda for BLOSUM62 with Robinson frequencies is
	// ~0.318-0.324 (depends slightly on the frequency set).
	if lambda < 0.30 || lambda > 0.34 {
		t.Fatalf("BLOSUM62 ungapped lambda %.4f outside [0.30, 0.34]", lambda)
	}
	// Verify it actually solves the equation.
	sum := 0.0
	for i := 0; i < 20; i++ {
		for j := 0; j < 20; j++ {
			sum += background[i] * background[j] * math.Exp(lambda*float64(scoring.BLOSUM62.Score(byte(i), byte(j))))
		}
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("lambda does not solve the K-A equation: sum %.8f", sum)
	}
}

func TestUngappedLambdaBLOSUM50(t *testing.T) {
	lambda, err := UngappedLambda(scoring.BLOSUM50)
	if err != nil {
		t.Fatal(err)
	}
	if lambda < 0.20 || lambda > 0.26 {
		t.Fatalf("BLOSUM50 ungapped lambda %.4f outside [0.20, 0.26]", lambda)
	}
}

func TestLambdaRejectsPositiveExpectation(t *testing.T) {
	m := scoring.Simple("all-match", 20, 20, 1, 1) // every score positive
	if _, err := UngappedLambda(m); err == nil {
		t.Fatal("positive-expectation matrix must be rejected")
	}
}

func TestForParamsGappedLookup(t *testing.T) {
	p, err := ForParams(scoring.BLOSUM62, scoring.Gaps{Start: 10, Extend: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Gapped || p.Lambda != 0.255 {
		t.Fatalf("expected published gapped params, got %+v", p)
	}
	// Unknown gap model falls back to ungapped.
	p2, err := ForParams(scoring.BLOSUM62, scoring.Gaps{Start: 3, Extend: 3})
	if err != nil {
		t.Fatal(err)
	}
	if p2.Gapped {
		t.Fatalf("expected ungapped fallback, got %+v", p2)
	}
}

func TestEValueMonotonicity(t *testing.T) {
	p, err := ForParams(scoring.BLOSUM62, scoring.DefaultGaps)
	if err != nil {
		t.Fatal(err)
	}
	// Higher scores give lower E-values; larger search spaces give higher.
	if p.EValue(100, 300, 1e6) <= p.EValue(200, 300, 1e6) {
		t.Fatal("E-value must decrease with score")
	}
	if p.EValue(100, 300, 1e6) >= p.EValue(100, 300, 1e8) {
		t.Fatal("E-value must increase with database size")
	}
	if p.BitScore(200) <= p.BitScore(100) {
		t.Fatal("bit score must increase with raw score")
	}
}

func TestScoreForEValueRoundTrip(t *testing.T) {
	p, err := ForParams(scoring.BLOSUM62, scoring.DefaultGaps)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []float64{10, 1e-3, 1e-10} {
		s := p.ScoreForEValue(e, 350, 193_000_000)
		if got := p.EValue(s, 350, 193_000_000); got > e*(1+1e-9) {
			t.Fatalf("threshold %d for E=%g has E-value %g", s, e, got)
		}
		if got := p.EValue(s-1, 350, 193_000_000); got <= e {
			t.Fatalf("threshold %d for E=%g is not minimal (score-1 has E=%g)", s, e, got)
		}
	}
	if p.ScoreForEValue(0, 10, 10) != math.MaxInt32 {
		t.Fatal("zero E-value threshold")
	}
}

// Property: E-values are positive and finite for sane inputs.
func TestQuickEValueSanity(t *testing.T) {
	p, err := ForParams(scoring.BLOSUM62, scoring.DefaultGaps)
	if err != nil {
		t.Fatal(err)
	}
	f := func(raw uint16, qlen uint16, db uint32) bool {
		if qlen == 0 || db == 0 {
			return true
		}
		e := p.EValue(int(raw%2000), int(qlen), int64(db))
		return e > 0 && !math.IsInf(e, 0) && !math.IsNaN(e)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
