// Package evalue implements Karlin-Altschul statistics for local
// alignment scores: the ungapped λ parameter is solved exactly from the
// scoring matrix and residue background frequencies (Karlin & Altschul
// 1990), relative entropy H follows, and gapped (λ, K) pairs for the
// standard matrix/gap combinations use the published BLAST values. From
// these the package converts raw Smith-Waterman scores into bit scores
// and E-values for a given search space, which is what a production
// database-search tool reports next to each hit.
package evalue

import (
	"fmt"
	"math"

	"swdual/internal/scoring"
)

// Robinson-Robinson background frequencies over the 20 standard residues
// (same source as package synth, normalized to 1).
var background = [20]float64{
	0.07805, 0.05129, 0.04487, 0.05364, 0.01925, 0.04264, 0.06295, 0.07377, 0.02199, 0.05142,
	0.09019, 0.05744, 0.02243, 0.03856, 0.05203, 0.07129, 0.05841, 0.01330, 0.03216, 0.06441,
}

// UngappedLambda solves sum_ij p_i p_j exp(lambda*S_ij) = 1 for
// lambda > 0 by bisection. The equation has a unique positive root when
// the expected score is negative and a positive score exists; an error is
// returned otherwise (such matrices cannot produce local-alignment
// statistics).
func UngappedLambda(m *scoring.Matrix) (float64, error) {
	expected := 0.0
	positive := false
	for i := 0; i < 20; i++ {
		for j := 0; j < 20; j++ {
			s := float64(m.Score(byte(i), byte(j)))
			expected += background[i] * background[j] * s
			if s > 0 {
				positive = true
			}
		}
	}
	if expected >= 0 || !positive {
		return 0, fmt.Errorf("evalue: matrix %s has expected score %.4f; Karlin-Altschul statistics require a negative expectation and at least one positive score", m.Name(), expected)
	}
	f := func(lambda float64) float64 {
		sum := 0.0
		for i := 0; i < 20; i++ {
			for j := 0; j < 20; j++ {
				sum += background[i] * background[j] * math.Exp(lambda*float64(m.Score(byte(i), byte(j))))
			}
		}
		return sum - 1
	}
	// f(0) = 0; f'(0) = expected < 0; f -> +inf. Bracket the positive
	// root.
	lo, hi := 1e-6, 1.0
	for f(hi) < 0 {
		hi *= 2
		if hi > 100 {
			return 0, fmt.Errorf("evalue: lambda bracket failed for %s", m.Name())
		}
	}
	for iter := 0; iter < 200 && hi-lo > 1e-12; iter++ {
		mid := (lo + hi) / 2
		if f(mid) < 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}

// Params are the Karlin-Altschul parameters used for score conversion.
type Params struct {
	Lambda float64
	K      float64
	// Gapped records whether the parameters account for the gap model
	// (published values) or are the ungapped solution.
	Gapped bool
}

// gappedTable holds published BLAST parameter sets, keyed by matrix name
// and the (Gs, Ge) gap model in this module's notation (BLAST's
// "open/extend" 11/1 for BLOSUM62 corresponds to Gs=10, Ge=1 here; the
// CUDASW++ default 10/2 matches BLAST 10-2).
var gappedTable = map[string]map[[2]int]Params{
	"BLOSUM62": {
		{10, 1}: {Lambda: 0.267, K: 0.041, Gapped: true},
		{10, 2}: {Lambda: 0.255, K: 0.035, Gapped: true},
		{9, 2}:  {Lambda: 0.279, K: 0.058, Gapped: true},
		{12, 1}: {Lambda: 0.283, K: 0.059, Gapped: true},
	},
	"BLOSUM50": {
		{10, 3}: {Lambda: 0.243, K: 0.070, Gapped: true},
		{12, 2}: {Lambda: 0.243, K: 0.070, Gapped: true},
		{14, 2}: {Lambda: 0.254, K: 0.075, Gapped: true},
	},
}

// ForParams returns conversion parameters for a matrix and gap model:
// published gapped values when available, otherwise the exact ungapped
// solution (flagged Gapped=false; its E-values are conservative for
// gapped searches).
func ForParams(m *scoring.Matrix, gaps scoring.Gaps) (Params, error) {
	if byGap, ok := gappedTable[m.Name()]; ok {
		if p, ok := byGap[[2]int{gaps.Start, gaps.Extend}]; ok {
			return p, nil
		}
	}
	lambda, err := UngappedLambda(m)
	if err != nil {
		return Params{}, err
	}
	// The ungapped K for protein matrices clusters around 0.1-0.35; use
	// the standard BLOSUM62 ungapped value as the conservative default.
	return Params{Lambda: lambda, K: 0.13, Gapped: false}, nil
}

// BitScore converts a raw score to bits.
func (p Params) BitScore(raw int) float64 {
	return (p.Lambda*float64(raw) - math.Log(p.K)) / math.Ln2
}

// EValue returns the expected number of chance alignments with score at
// least raw in a search of a query of length m against a database of n
// total residues.
func (p Params) EValue(raw, queryLen int, dbResidues int64) float64 {
	return p.K * float64(queryLen) * float64(dbResidues) * math.Exp(-p.Lambda*float64(raw))
}

// ScoreForEValue returns the minimal raw score whose E-value is at most e
// for the given search space — the significance threshold a search tool
// applies.
func (p Params) ScoreForEValue(e float64, queryLen int, dbResidues int64) int {
	if e <= 0 {
		return math.MaxInt32
	}
	raw := (math.Log(p.K*float64(queryLen)*float64(dbResidues)) - math.Log(e)) / p.Lambda
	return int(math.Ceil(raw))
}
