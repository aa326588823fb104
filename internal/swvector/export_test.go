package swvector

import (
	"swdual/internal/seq"
	"swdual/internal/sw"
)

// BenchCorpus is benchCorpus for the package's external tests.
var BenchCorpus = benchCorpus

// PlanAVX2 builds db's lane plan for the AVX2 column — 32 lanes, blocks
// of 4 columns — with or without the route to the pair kernel, and
// returns its column count and the subjects it routed.
func PlanAVX2(db *seq.Set, route bool) (cols int, routed []int) {
	p := newLanePlan(db, avx2Lanes, avx2Block, route)
	return len(p.stream) / avx2Lanes, p.routed
}

// NewInterSeqRouting is NewInterSeq with its route to the pair kernel
// turned off when route is false.
func NewInterSeqRouting(p sw.Params, route bool) *InterSeq {
	e := NewInterSeq(p)
	e.route = e.route && route
	return e
}
