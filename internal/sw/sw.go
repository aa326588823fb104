// Package sw implements reference Smith-Waterman local alignment: the
// linear-gap recurrence of the paper's Eq. (1) and the Gotoh affine-gap
// recurrences of Eqs. (2)-(4). These scalar implementations are the
// correctness oracle for every accelerated engine (striped SWAR,
// inter-sequence SWIPE, simulated GPU kernels) and the engine used by the
// plain CPU baseline.
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
// striped and inter-sequence SWAR engines and the simulated GPU kernels.
type Engine interface {
	// Name identifies the engine in benchmarks and tables.
	Name() string
	// Scores returns the optimal local alignment score of query against
	// each sequence of db, in db order.
	Scores(query []byte, db *seq.Set) []int
}

// Cells returns the number of dynamic-programming cells for one comparison.
func Cells(queryLen, subjectLen int) int64 {
	return int64(queryLen) * int64(subjectLen)
}

// SetCells returns the DP cell volume of a query against a whole set.
func SetCells(queryLen int, db *seq.Set) int64 {
	return int64(queryLen) * db.TotalResidues()
}

// ScoreLinear computes the optimal local alignment score under the
// linear-gap model of Eq. (1): every gap column costs the same penalty g
// (g > 0 is a penalty, stored positive).
func ScoreLinear(m *scoring.Matrix, g int, query, subject []byte) int {
	if len(query) == 0 || len(subject) == 0 {
		return 0
	}
	n := len(subject)
	h := make([]int, n+1)
	best := 0
	for i := 1; i <= len(query); i++ {
		q := query[i-1]
		row := m.Row(q)
		diag := h[0]
		for j := 1; j <= n; j++ {
			up := h[j] - g
			left := h[j-1] - g
			v := diag + int(row[subject[j-1]])
			if up > v {
				v = up
			}
			if left > v {
				v = left
			}
			if v < 0 {
				v = 0
			}
			diag = h[j]
			h[j] = v
			if v > best {
				best = v
			}
		}
	}
	return best
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

// ScoreWithEnd is Score but also reports the subject and query end
// positions (1-based, inclusive) of an optimal local alignment. Ties are
// broken toward the smallest query end, then smallest subject end.
func ScoreWithEnd(p Params, query, subject []byte) (score, queryEnd, subjectEnd int) {
	if len(query) == 0 || len(subject) == 0 {
		return 0, 0, 0
	}
	ge, gs := p.Gaps.Extend, p.Gaps.Start
	n := len(subject)
	h := make([]int, n+1)
	f := make([]int, n+1)
	for j := range f {
		f[j] = negInf
	}
	for i := 1; i <= len(query); i++ {
		row := p.Matrix.Row(query[i-1])
		diag := h[0]
		e := negInf
		for j := 1; j <= n; j++ {
			hup := h[j]
			fv := f[j]
			if v := hup - gs; v > fv {
				fv = v
			}
			fv -= ge
			if v := h[j-1] - gs; v > e {
				e = v
			}
			e -= ge
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
			if v > score {
				score, queryEnd, subjectEnd = v, i, j
			}
		}
	}
	return score, queryEnd, subjectEnd
}

// ScoreBanded computes the affine-gap local score restricted to a diagonal
// band of half-width band around the main diagonal (|i-j| <= band). It is
// an admissible accelerator when the optimum stays within the band; tests
// verify it converges to Score as the band widens.
func ScoreBanded(p Params, query, subject []byte, band int) int {
	if len(query) == 0 || len(subject) == 0 {
		return 0
	}
	if band < 1 {
		band = 1
	}
	ge, gs := p.Gaps.Extend, p.Gaps.Start
	n := len(subject)
	h := make([]int, n+1)
	f := make([]int, n+1)
	hprev := make([]int, n+1)
	best := 0
	for j := range f {
		f[j] = negInf
	}
	for i := 1; i <= len(query); i++ {
		copy(hprev, h)
		row := p.Matrix.Row(query[i-1])
		lo := i - band
		if lo < 1 {
			lo = 1
		}
		hi := i + band
		if hi > n {
			hi = n
		}
		if lo > n {
			break
		}
		e := negInf
		if lo > 1 {
			h[lo-1] = 0 // outside the band: treated as empty prefix
		}
		for j := lo; j <= hi; j++ {
			fv := f[j]
			if v := hprev[j] - gs; v > fv {
				fv = v
			}
			fv -= ge
			if v := h[j-1] - gs; v > e {
				e = v
			}
			e -= ge
			v := hprev[j-1] + int(row[subject[j-1]])
			if e > v {
				v = e
			}
			if fv > v {
				v = fv
			}
			if v < 0 {
				v = 0
			}
			h[j] = v
			f[j] = fv
			if v > best {
				best = v
			}
		}
		if hi < n {
			h[hi+1] = 0
			f[hi+1] = negInf
		}
	}
	return best
}
