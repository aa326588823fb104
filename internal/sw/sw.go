// Package sw implements reference Smith-Waterman local alignment: the
// Gotoh affine-gap recurrences of the paper's Eqs. (2)-(4), of which the
// linear-gap recurrence of Eq. (1) is the Gs = 0 case. This scalar
// implementation is the correctness oracle for every accelerated engine
// (striped SWAR, inter-sequence SWIPE, fine-grained wavefront) and the
// engine used by the plain CPU baseline.
package sw

import (
	"swdual/internal/scoring"
	"swdual/internal/seq"
)

const negInf = int(-1) << 40 // deep enough that no additive chain recovers

// Params bundles the substitution matrix and affine gap model shared by all
// engines.
type Params struct {
	Matrix *scoring.Matrix
	Gaps   scoring.Gaps
}

// DefaultParams is BLOSUM62 with the 10/2 affine gap model.
func DefaultParams() Params {
	return Params{Matrix: scoring.BLOSUM62, Gaps: scoring.DefaultGaps}
}

// Engine computes local-alignment scores of one query against a set of
// subject sequences. Implementations include the scalar reference, the
// striped and inter-sequence SWAR engines and the fine-grained wavefront.
type Engine interface {
	// Name identifies the engine in benchmarks and tables.
	Name() string
	// Scores returns the optimal local alignment score of query against
	// each sequence of db, in db order.
	Scores(query []byte, db *seq.Set) []int
}

// SetCells returns the DP cell volume of a query against a whole set.
func SetCells(queryLen int, db *seq.Set) int64 {
	return int64(queryLen) * db.TotalResidues()
}

// Score computes the optimal local alignment score under the affine-gap
// model (Gotoh), using linear memory in the subject length. This is the
// module's oracle implementation.
func Score(p Params, query, subject []byte) int {
	if len(query) == 0 || len(subject) == 0 {
		return 0
	}
	ge := p.Gaps.Extend
	gs := p.Gaps.Start
	n := len(subject)
	h := make([]int, n+1) // h[j]: H[i-1][j] before update, H[i][j] after
	f := make([]int, n+1) // f[j]: F[i-1][j] before update, F[i][j] after
	for j := range f {
		f[j] = negInf
	}
	best := 0
	for i := 1; i <= len(query); i++ {
		row := p.Matrix.Row(query[i-1])
		diag := h[0]
		e := negInf
		for j := 1; j <= n; j++ {
			hup := h[j] // H[i-1][j]
			// Eq. (4): F[i][j] = -Ge + max(F[i-1][j], H[i-1][j] - Gs)
			fv := f[j]
			if v := hup - gs; v > fv {
				fv = v
			}
			fv -= ge
			// Eq. (3): E[i][j] = -Ge + max(E[i][j-1], H[i][j-1] - Gs)
			if v := h[j-1] - gs; v > e {
				e = v
			}
			e -= ge
			// Eq. (2)
			v := diag + int(row[subject[j-1]])
			if e > v {
				v = e
			}
			if fv > v {
				v = fv
			}
			if v < 0 {
				v = 0
			}
			diag = hup
			h[j] = v
			f[j] = fv
			if v > best {
				best = v
			}
		}
	}
	return best
}
