package sw

import (
	"fmt"
	"strings"

	"swdual/internal/alphabet"
)

// Alignment is a full local alignment with traceback, as produced by Align.
// Coordinates are 0-based half-open over the original sequences.
type Alignment struct {
	Score      int
	QueryStart int
	QueryEnd   int
	SubjStart  int
	SubjEnd    int
	// QueryRow and SubjRow are the aligned residue codes with gap columns
	// marked by the sentinel GapCode.
	QueryRow []byte
	SubjRow  []byte
	// Matches counts identical columns; Positives counts columns with a
	// positive substitution score; Gaps counts gap columns.
	Matches   int
	Positives int
	Gaps      int
}

// GapCode marks a gap column in Alignment rows. It is outside every
// alphabet (alphabets have at most 32 codes).
const GapCode = 0xFF

// Identity returns the fraction of identical columns, 0 for empty
// alignments.
func (a *Alignment) Identity() float64 {
	if len(a.QueryRow) == 0 {
		return 0
	}
	return float64(a.Matches) / float64(len(a.QueryRow))
}

// CIGAR renders the alignment as a CIGAR string (M/I/D run-length codes,
// I = gap in subject / insertion to query, D = gap in query).
func (a *Alignment) CIGAR() string {
	var sb strings.Builder
	runOp := byte(0)
	runLen := 0
	flush := func() {
		if runLen > 0 {
			fmt.Fprintf(&sb, "%d%c", runLen, runOp)
		}
	}
	for i := range a.QueryRow {
		var op byte
		switch {
		case a.QueryRow[i] == GapCode:
			op = 'D'
		case a.SubjRow[i] == GapCode:
			op = 'I'
		default:
			op = 'M'
		}
		if op != runOp {
			flush()
			runOp, runLen = op, 0
		}
		runLen++
	}
	flush()
	return sb.String()
}

// Format renders a BLAST-like three-line text block using the alphabet.
func (a *Alignment) Format(alpha *alphabet.Alphabet) string {
	var q, m, s strings.Builder
	for i := range a.QueryRow {
		qc, sc := a.QueryRow[i], a.SubjRow[i]
		switch {
		case qc == GapCode:
			q.WriteByte('-')
			s.WriteByte(alpha.Letter(sc))
			m.WriteByte(' ')
		case sc == GapCode:
			q.WriteByte(alpha.Letter(qc))
			s.WriteByte('-')
			m.WriteByte(' ')
		case qc == sc:
			q.WriteByte(alpha.Letter(qc))
			s.WriteByte(alpha.Letter(sc))
			m.WriteByte('|')
		default:
			q.WriteByte(alpha.Letter(qc))
			s.WriteByte(alpha.Letter(sc))
			m.WriteByte(' ')
		}
	}
	return fmt.Sprintf("Query %5d %s %d\n            %s\nSbjct %5d %s %d\n",
		a.QueryStart+1, q.String(), a.QueryEnd, m.String(), a.SubjStart+1, s.String(), a.SubjEnd)
}

// traceback matrix identifiers.
const (
	tbNone = iota // alignment start (H = 0)
	tbDiag
	tbE // gap in query (move left)
	tbF // gap in subject (move up)
)

// Align computes an optimal local alignment with full traceback using
// O(m*n) memory.
func Align(p Params, query, subject []byte) *Alignment {
	m, n := len(query), len(subject)
	if m == 0 || n == 0 {
		return &Alignment{}
	}
	gs, ge := p.Gaps.Start, p.Gaps.Extend
	w := n + 1
	h := make([]int32, (m+1)*w)
	e := make([]int32, (m+1)*w)
	f := make([]int32, (m+1)*w)
	// dir packs: bits 0-1 source of H; bit 2 E came from E (extension);
	// bit 3 F came from F (extension).
	dir := make([]uint8, (m+1)*w)
	const ninf = int32(-1) << 28
	for j := 0; j <= n; j++ {
		e[j], f[j] = ninf, ninf
	}
	bestScore, bi, bj := int32(0), 0, 0
	for i := 1; i <= m; i++ {
		row := p.Matrix.Row(query[i-1])
		e[i*w], f[i*w] = ninf, ninf
		for j := 1; j <= n; j++ {
			idx := i*w + j
			// E: gap in query, coming from the left.
			ev := e[idx-1] - int32(ge)
			eFromH := h[idx-1] - int32(gs+ge)
			var d uint8
			if eFromH >= ev {
				ev = eFromH
			} else {
				d |= 1 << 2
			}
			// F: gap in subject, coming from above.
			fv := f[idx-w] - int32(ge)
			fFromH := h[idx-w] - int32(gs+ge)
			if fFromH >= fv {
				fv = fFromH
			} else {
				d |= 1 << 3
			}
			hv := h[idx-w-1] + int32(row[subject[j-1]])
			src := uint8(tbDiag)
			if ev > hv {
				hv, src = ev, tbE
			}
			if fv > hv {
				hv, src = fv, tbF
			}
			if hv <= 0 {
				hv, src = 0, tbNone
			}
			h[idx], e[idx], f[idx] = hv, ev, fv
			dir[idx] = d | src
			if hv > bestScore {
				bestScore, bi, bj = hv, i, j
			}
		}
	}
	al := &Alignment{Score: int(bestScore), QueryEnd: bi, SubjEnd: bj}
	if bestScore == 0 {
		return al
	}
	// Traceback from (bi, bj).
	var qrow, srow []byte
	i, j := bi, bj
	state := dir[i*w+j] & 3
	for state != tbNone && i > 0 && j > 0 {
		idx := i*w + j
		switch state {
		case tbDiag:
			qrow = append(qrow, query[i-1])
			srow = append(srow, subject[j-1])
			i, j = i-1, j-1
			state = dir[i*w+j] & 3
		case tbE:
			ext := dir[idx]&(1<<2) != 0
			qrow = append(qrow, GapCode)
			srow = append(srow, subject[j-1])
			j--
			if ext {
				state = tbE
			} else {
				state = dir[i*w+j] & 3
			}
		case tbF:
			ext := dir[idx]&(1<<3) != 0
			qrow = append(qrow, query[i-1])
			srow = append(srow, GapCode)
			i--
			if ext {
				state = tbF
			} else {
				state = dir[i*w+j] & 3
			}
		}
	}
	al.QueryStart, al.SubjStart = i, j
	reverse(qrow)
	reverse(srow)
	al.QueryRow, al.SubjRow = qrow, srow
	for k := range qrow {
		switch {
		case qrow[k] == GapCode || srow[k] == GapCode:
			al.Gaps++
		case qrow[k] == srow[k]:
			al.Matches++
			al.Positives++
		case p.Matrix.Score(qrow[k], srow[k]) > 0:
			al.Positives++
		}
	}
	return al
}

func reverse(b []byte) {
	for l, r := 0, len(b)-1; l < r; l, r = l+1, r-1 {
		b[l], b[r] = b[r], b[l]
	}
}
