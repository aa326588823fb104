// Package scoring provides substitution matrices, gap-penalty models and
// precomputed query profiles for Smith-Waterman alignment.
//
// Matrices are indexed by the dense residue codes of package alphabet; the
// row/column order of the protein matrices is exactly
// "ARNDCQEGHILKMFPSTWYVBZX*". Gap penalties follow the paper's affine-gap
// notation: Gs is the penalty for starting a gap and Ge for extending it,
// so a gap of length L costs Gs + L*Ge (Eqs. (3) and (4) of the paper).
package scoring

import (
	"fmt"

	"swdual/internal/alphabet"
)

// Matrix is a residue substitution matrix over an alphabet of up to 32
// residue codes. Scores are stored densely; lookups never allocate.
type Matrix struct {
	name  string
	n     int
	cells [32 * 32]int8
}

// NewMatrix builds a Matrix from a square table. The table must be n x n
// with n <= 32.
func NewMatrix(name string, table [][]int8) (*Matrix, error) {
	n := len(table)
	if n == 0 || n > 32 {
		return nil, fmt.Errorf("scoring: matrix %s has unsupported size %d", name, n)
	}
	m := &Matrix{name: name, n: n}
	for i, row := range table {
		if len(row) != n {
			return nil, fmt.Errorf("scoring: matrix %s row %d has %d entries, want %d", name, i, len(row), n)
		}
		for j, v := range row {
			m.cells[i*32+j] = v
		}
	}
	return m, nil
}

func mustMatrix(name string, table [][]int8) *Matrix {
	m, err := NewMatrix(name, table)
	if err != nil {
		panic(err)
	}
	return m
}

// Name returns the matrix name (e.g. "BLOSUM62").
func (m *Matrix) Name() string { return m.name }

// Size returns the number of residue codes covered.
func (m *Matrix) Size() int { return m.n }

// Covers refuses an alphabet with residue codes the matrix has no row
// for: scoring one would read past the matrix.
func (m *Matrix) Covers(a *alphabet.Alphabet) error {
	if m.n < a.Len() {
		return fmt.Errorf("scoring: matrix %s covers %d residue codes, fewer than the %s alphabet's %d", m.name, m.n, a.Name(), a.Len())
	}
	return nil
}

// Score returns the substitution score for residue codes a and b.
func (m *Matrix) Score(a, b byte) int { return int(m.cells[int(a)*32+int(b)]) }

// Row returns the n scores of row a as int8 values; the returned slice
// aliases the matrix and must not be modified.
func (m *Matrix) Row(a byte) []int8 { return m.cells[int(a)*32 : int(a)*32+m.n] }

// Max returns the largest score in the matrix.
func (m *Matrix) Max() int {
	best := int(m.cells[0])
	for i := 0; i < m.n; i++ {
		for j := 0; j < m.n; j++ {
			if v := int(m.cells[i*32+j]); v > best {
				best = v
			}
		}
	}
	return best
}

// Min returns the smallest score in the matrix.
func (m *Matrix) Min() int {
	worst := int(m.cells[0])
	for i := 0; i < m.n; i++ {
		for j := 0; j < m.n; j++ {
			if v := int(m.cells[i*32+j]); v < worst {
				worst = v
			}
		}
	}
	return worst
}

// SelfScore returns the score of aligning seq against itself without gaps,
// i.e. the sum of diagonal entries. It upper-bounds no general alignment
// property but is a useful workload statistic.
func (m *Matrix) SelfScore(seq []byte) int {
	s := 0
	for _, r := range seq {
		s += m.Score(r, r)
	}
	return s
}

// Gaps is the affine gap model of the paper: starting a gap costs Gs+Ge and
// each extension costs Ge. Both values are non-negative penalties.
type Gaps struct {
	Start  int // Gs: penalty charged once when a gap is opened
	Extend int // Ge: penalty charged for every gap column, including the first
}

// DefaultGaps matches the common protein-search setting (10/2 in SSEARCH
// terms expressed as Gs=10, Ge=2), also the CUDASW++ 2.0 default.
var DefaultGaps = Gaps{Start: 10, Extend: 2}

// Validate reports an error for non-positive or inconsistent penalties.
func (g Gaps) Validate() error {
	if g.Start < 0 || g.Extend <= 0 {
		return fmt.Errorf("scoring: invalid gap penalties Gs=%d Ge=%d (need Gs>=0, Ge>0)", g.Start, g.Extend)
	}
	return nil
}

// OpenCost returns the cost of the first residue of a gap (Gs+Ge).
func (g Gaps) OpenCost() int { return g.Start + g.Extend }

// Simple builds a match/mismatch matrix over the given alphabet size, as
// used for DNA comparisons (the paper's Figure 1 example uses ma=+1,
// mi=-1). Ambiguity codes (indexes >= core) score mismatch against
// everything including themselves.
func Simple(name string, n, core, match, mismatch int) *Matrix {
	table := make([][]int8, n)
	for i := range table {
		table[i] = make([]int8, n)
		for j := range table[i] {
			if i == j && i < core {
				table[i][j] = int8(match)
			} else {
				table[i][j] = int8(mismatch)
			}
		}
	}
	return mustMatrix(name, table)
}

// DNASimple is the classic +1/-1 nucleotide matrix of the paper's example.
var DNASimple = Simple("DNA+1/-1", alphabet.DNA.Len(), alphabet.DNA.Core(), 1, -1)

// ByName returns a built-in matrix by its canonical name.
func ByName(name string) (*Matrix, error) {
	switch name {
	case "BLOSUM62", "blosum62":
		return BLOSUM62, nil
	case "BLOSUM50", "blosum50":
		return BLOSUM50, nil
	case "PAM250", "pam250":
		return PAM250, nil
	case "DNA", "dna":
		return DNASimple, nil
	}
	return nil, fmt.Errorf("scoring: unknown matrix %q", name)
}
