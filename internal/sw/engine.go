package sw

import "swdual/internal/seq"

// Scalar is the reference engine: one scalar Gotoh DP per database
// sequence. It is the oracle for all accelerated engines and the analogue
// of an unvectorized CPU tool (the SWPS3 baseline maps here in functional
// runs).
type Scalar struct {
	params Params
}

// NewScalar builds the engine.
func NewScalar(p Params) *Scalar { return &Scalar{params: p} }

// Name implements Engine.
func (e *Scalar) Name() string { return "scalar-gotoh" }

// Scores implements Engine.
func (e *Scalar) Scores(query []byte, db *seq.Set) []int {
	out := make([]int, db.Len())
	for i := range db.Seqs {
		out[i] = Score(e.params, query, db.Seqs[i].Residues)
	}
	return out
}
