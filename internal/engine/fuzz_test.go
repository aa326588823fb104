package engine

import (
	"bytes"
	"testing"

	"swdual/internal/alphabet"
	"swdual/internal/seq"
)

// fuzzSep separates subjects in FuzzSplitAgrees' input; two in a row
// make an empty subject.
const fuzzSep = 0xFF

const (
	fuzzMaxLen      = 256 // per sequence
	fuzzMaxSubjects = 96  // room for TestSplitMatchesUnsplitAndOracle's 90
)

// fuzzSet encodes each sep-separated run of raw as one sequence, its
// bytes taken modulo the protein alphabet.
func fuzzSet(raw []byte) *seq.Set {
	set := seq.NewSet(alphabet.Protein)
	for i, r := range bytes.Split(raw, []byte{fuzzSep}) {
		if i == fuzzMaxSubjects {
			break
		}
		r = r[:min(len(r), fuzzMaxLen)]
		res := make([]byte, len(r))
		for j, v := range r {
			res[j] = v % byte(alphabet.Protein.Len())
		}
		set.AddEncoded("s", "", res)
	}
	return set
}

// FuzzSplitAgrees re-cuts a Searcher over a fuzzed subject set into 1 to
// 8 chunks before its first search: a lone fuzzed query must come back
// with the unsplit Searcher's hits, which must be sw.Score's top hits.
// Empty subjects, a subject per chunk or fewer, and top-K cuts that fall
// on ties across a chunk boundary are all in reach.
func FuzzSplitAgrees(f *testing.F) {
	db, queries := testSets(31, 32, 90, 4) // TestSplitMatchesUnsplitAndOracle's sets
	var subjects []byte
	for i := range db.Seqs {
		if i > 0 {
			subjects = append(subjects, fuzzSep)
		}
		subjects = append(subjects, db.Seqs[i].Residues...)
	}
	for qi := range queries.Seqs {
		for n := range 8 {
			f.Add(uint8(n), uint8(6), queries.Seqs[qi].Residues, subjects)
		}
	}
	f.Fuzz(func(t *testing.T, parts, topK uint8, query, subjects []byte) {
		db := fuzzSet(subjects)
		q := fuzzSet(query).Slice(0, 1)
		cfg := Config{TopK: 1 + int(topK%16)}
		want := oracle(db, q, cfg.TopK)
		loneSearches(t, "unsplit", db, q, cfg, 1, want)
		loneSearches(t, "split", db, q, cfg, 1+int(parts%8), want)
	})
}
