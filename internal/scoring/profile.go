package scoring

import "fmt"

// StripedProfile8 is a Farrar-style striped query profile with 8-bit biased
// unsigned lanes packed into uint64 words (8 lanes per word, the SWAR
// analogue of an SSE2 xmm register holding 16 lanes).
//
// The query is split into SegLen segments; lane l of segment s corresponds
// to query position s + l*SegLen. Position indexes beyond the query length
// contribute the most negative score (bias 0 after biasing) so they can
// never start or extend an alignment.
type StripedProfile8 struct {
	QueryLen int
	SegLen   int // number of uint64 words per residue row
	Bias     uint8
	Rows     [][]uint64 // Rows[r][s] packs 8 lanes for segment word s
}

// Lanes8 is the number of 8-bit lanes per SWAR word.
const Lanes8 = 8

// Lanes16 is the number of 16-bit lanes per SWAR word.
const Lanes16 = 4

// NewStripedProfile8 builds the biased 8-bit striped profile. The bias is
// -min(matrix) so all stored values are non-negative; engines subtract it
// after each add. Returns an error if the matrix range cannot be biased
// into 8 bits.
func NewStripedProfile8(m *Matrix, query []byte) (*StripedProfile8, error) {
	minV, maxV := m.Min(), m.Max()
	if maxV-minV > 200 { // leave headroom below the 255 saturation ceiling
		return nil, fmt.Errorf("scoring: matrix %s range [%d,%d] too wide for 8-bit profile", m.Name(), minV, maxV)
	}
	bias := uint8(0)
	if minV < 0 {
		bias = uint8(-minV)
	}
	segLen := (len(query) + Lanes8 - 1) / Lanes8
	if segLen == 0 {
		segLen = 1
	}
	p := &StripedProfile8{QueryLen: len(query), SegLen: segLen, Bias: bias, Rows: make([][]uint64, m.Size())}
	for r := 0; r < m.Size(); r++ {
		row := make([]uint64, segLen)
		for s := 0; s < segLen; s++ {
			var w uint64
			for l := 0; l < Lanes8; l++ {
				pos := s + l*segLen
				v := 0 // biased "minus infinity": raw score -bias
				if pos < len(query) {
					v = m.Score(query[pos], byte(r)) + int(bias)
				}
				w |= uint64(uint8(v)) << (8 * l)
			}
			row[s] = w
		}
		p.Rows[r] = row
	}
	return p, nil
}

// StripedProfile16 is the 16-bit striped profile used when 8-bit scores
// may overflow (4 lanes per uint64 word). Like the 8-bit profile it stores
// biased unsigned values (score + Bias >= 0); out-of-range positions store
// 0, which after bias subtraction acts as the most negative score.
type StripedProfile16 struct {
	QueryLen int
	SegLen   int
	Bias     uint16
	Rows     [][]uint64 // Rows[r][s] packs 4 uint16 lanes
}

// QueryProfiles lazily builds the striped profiles of one query against
// one matrix: the 8-bit one first, the 16-bit one only when some subject
// overflows 8 bits. An engine makes one per Scores call and reads it
// from one goroutine.
type QueryProfiles struct {
	m     *Matrix
	query []byte

	p8    *StripedProfile8
	p8err error
	built bool
	p16   *StripedProfile16
}

// NewQueryProfiles prepares a (still empty) profile set for an encoded
// query.
func NewQueryProfiles(m *Matrix, query []byte) *QueryProfiles {
	return &QueryProfiles{m: m, query: query}
}

// Striped8 returns the 8-bit striped profile, building it on first use.
// The error mirrors NewStripedProfile8 (matrix range too wide for 8-bit
// biasing) and is sticky.
func (q *QueryProfiles) Striped8() (*StripedProfile8, error) {
	if !q.built {
		q.p8, q.p8err = NewStripedProfile8(q.m, q.query)
		q.built = true
	}
	return q.p8, q.p8err
}

// Striped16 returns the 16-bit striped profile, building it on first use.
func (q *QueryProfiles) Striped16() *StripedProfile16 {
	if q.p16 == nil {
		q.p16 = NewStripedProfile16(q.m, q.query)
	}
	return q.p16
}

// NewStripedProfile16 builds the biased 16-bit striped profile.
func NewStripedProfile16(m *Matrix, query []byte) *StripedProfile16 {
	bias := uint16(0)
	if minV := m.Min(); minV < 0 {
		bias = uint16(-minV)
	}
	segLen := (len(query) + Lanes16 - 1) / Lanes16
	if segLen == 0 {
		segLen = 1
	}
	p := &StripedProfile16{QueryLen: len(query), SegLen: segLen, Bias: bias, Rows: make([][]uint64, m.Size())}
	for r := 0; r < m.Size(); r++ {
		row := make([]uint64, segLen)
		for s := 0; s < segLen; s++ {
			var w uint64
			for l := 0; l < Lanes16; l++ {
				pos := s + l*segLen
				v := 0
				if pos < len(query) {
					v = m.Score(query[pos], byte(r)) + int(bias)
				}
				w |= uint64(uint16(v)) << (16 * l)
			}
			row[s] = w
		}
		p.Rows[r] = row
	}
	return p
}
