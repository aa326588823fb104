package swvector

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"swdual/internal/alphabet"
	"swdual/internal/scoring"
	"swdual/internal/seq"
	"swdual/internal/sw"
)

// TestGuardLanePrimitives checks max7 and anyGT7 over all 128 x 128
// value pairs in every lane position, with the seven other lanes holding
// pairs that vary with the pair under test, so a borrow or carry leaking
// across a lane boundary shows up in a neighbour.
func TestGuardLanePrimitives(t *testing.T) {
	for l := 0; l < Lanes8Count; l++ {
		for x := 0; x < 128; x++ {
			for y := 0; y < 128; y++ {
				var a, b, wantMax uint64
				wantGT := false
				for o := 0; o < Lanes8Count; o++ {
					av, bv := uint8((x*7+o*29+y)&0x7F), uint8((y*13+o*53+x)&0x7F)
					if o == l {
						av, bv = uint8(x), uint8(y)
					}
					a = withByte(a, o, av)
					b = withByte(b, o, bv)
					wantMax = withByte(wantMax, o, max(av, bv))
					wantGT = wantGT || av > bv
				}
				if got := max7(a, b); got != wantMax {
					t.Fatalf("lane %d: max7(%016x,%016x)=%016x want %016x", l, a, b, got, wantMax)
				}
				if got := anyGT7(a, b); got != wantGT {
					t.Fatalf("lane %d: anyGT7(%016x,%016x)=%v want %v", l, a, b, got, wantGT)
				}
			}
		}
	}
}

func TestTranspose8x8(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for iter := 0; iter < 200; iter++ {
		var in, want [8]uint64
		for i := range in {
			in[i] = rng.Uint64()
		}
		for i := range in {
			for j := range in {
				want[j] = withByte(want[j], i, byteAt(in[i], j))
			}
		}
		got := in
		transpose8x8(&got)
		if got != want {
			t.Fatalf("transpose8x8(%016x) = %016x, want %016x", in, got, want)
		}
	}
}

// selfScoring returns a sequence of core residues whose gap-free
// alignment with itself scores exactly target under m — and, since the
// built-in matrices are diagonally dominant, whose Smith-Waterman score
// against itself is target too. It panics if no such sequence exists.
func selfScoring(m *scoring.Matrix, target int) []byte {
	// Coin change over the diagonal: via[s] is the last residue of some
	// sequence summing to s.
	via := make([]int, target+1)
	for s := 1; s <= target; s++ {
		via[s] = -1
		for r := 0; r < alphabet.Protein.Core(); r++ {
			if d := m.Score(byte(r), byte(r)); d > 0 && d <= s && via[s-d] >= 0 {
				via[s] = r
				break
			}
		}
	}
	if via[target] < 0 {
		panic(fmt.Sprintf("no sequence self-scores %d under %s", target, m.Name()))
	}
	var out []byte
	for s := target; s > 0; s -= m.Score(out[len(out)-1], out[len(out)-1]) {
		out = append(out, byte(via[s]))
	}
	return out
}

// flaggedBy runs the inter-sequence kernel alone and returns the subject
// indexes it retired with the overflow flag set, in database order.
func flaggedBy(e *InterSeq, query []byte, db *seq.Set) []int {
	var flagged []int
	k := newInterKernel(e, query)
	k.run(db, make([]int, db.Len()), &flagged)
	k.release()
	slices.Sort(flagged)
	return flagged
}

func checkAgainstOracle(t *testing.T, p sw.Params, eng sw.Engine, query []byte, db *seq.Set) {
	t.Helper()
	got := eng.Scores(query, db)
	for i := range db.Seqs {
		if want := sw.Score(p, query, db.Seqs[i].Residues); got[i] != want {
			t.Fatalf("%s seq %d (|q|=%d |d|=%d): got %d want %d", eng.Name(), i, len(query), db.Seqs[i].Len(), got[i], want)
		}
	}
}

// TestInterSeqOverflowRescore pins the 127-K escalation threshold from
// both sides — a subject scoring exactly 127-K stays in its lane, one
// scoring 127-K+1 retires flagged — and then runs a self-match far beyond
// it. Either way the engine's answer is the oracle's.
func TestInterSeqOverflowRescore(t *testing.T) {
	for _, p := range []sw.Params{
		params(), // K = 14
		{Matrix: scoring.BLOSUM50, Gaps: scoring.Gaps{Start: 0, Extend: 4}}, // Gs == 0, K = 8
		{Matrix: scoring.BLOSUM62, Gaps: scoring.Gaps{Start: 0, Extend: 1}}, // K = bias = 4 > OpenCost+Extend
	} {
		e := NewInterSeq(p)
		if e.narrow {
			t.Fatalf("%s %+v: lanes unexpectedly narrow", p.Matrix.Name(), p.Gaps)
		}
		ceiling := 127 - e.offset
		for _, score := range []int{ceiling - 1, ceiling, ceiling + 1} {
			q := selfScoring(p.Matrix, score)
			db := seq.NewSet(alphabet.Protein)
			db.AddEncoded("short", "", q[:2])
			db.AddEncoded("self", "", q)
			db.AddEncoded("short2", "", q[1:3])
			if got := sw.Score(p, q, q); got != score {
				t.Fatalf("self score %d, built for %d", got, score)
			}
			var wantFlagged []int
			if score > ceiling {
				wantFlagged = []int{1}
			}
			if got := flaggedBy(e, q, db); !slices.Equal(got, wantFlagged) {
				t.Fatalf("%s K=%d score %d: flagged %v want %v", p.Matrix.Name(), e.offset, score, got, wantFlagged)
			}
			checkAgainstOracle(t, p, e, q, db)
		}
	}
	p := params()
	long := make([]byte, 500)
	for i := range long {
		long[i] = byte(i % 20)
	}
	db := seq.NewSet(alphabet.Protein)
	db.AddEncoded("self", "", long)
	db.AddEncoded("short", "", long[:10])
	checkAgainstOracle(t, p, NewInterSeq(p), long, db)
}

// TestInterSeqLaneIsolation saturates one lane — far past the point
// where its masked garbage wraps — while the seven neighbours hold
// low-scoring subjects, in every lane position: the saturated lane must
// be the only one flagged and all eight scores must equal the oracle.
func TestInterSeqLaneIsolation(t *testing.T) {
	p := params()
	e := NewInterSeq(p)
	rng := rand.New(rand.NewSource(17))
	long := make([]byte, 300)
	for i := range long {
		long[i] = byte(i % 20)
	}
	for hot := 0; hot < Lanes8Count; hot++ {
		db := seq.NewSet(alphabet.Protein)
		for l := 0; l < Lanes8Count; l++ {
			if l == hot {
				db.AddEncoded("hot", "", long)
			} else {
				db.AddEncoded("cold", "", randSeq(rng, 250+rng.Intn(100)))
			}
		}
		if got := flaggedBy(e, long, db); !slices.Equal(got, []int{hot}) {
			t.Fatalf("hot lane %d: flagged %v", hot, got)
		}
		checkAgainstOracle(t, p, e, long, db)
	}
}

// TestInterSeqDatabaseShapes runs databases around the lane count, with
// empty sequences where the kernel primes and refills its lanes.
func TestInterSeqDatabaseShapes(t *testing.T) {
	p := params()
	e := NewInterSeq(p)
	rng := rand.New(rand.NewSource(23))
	q := randSeq(rng, 60)
	for _, n := range []int{0, 1, 7, 8, 9} {
		// empties are the database indexes that hold an empty sequence:
		// first, last, around the first refill (index 8), and in a run.
		for _, empties := range [][]int{nil, {0}, {n}, {0, 1, n + 2}, {7, 8, 9}} {
			db := seq.NewSet(alphabet.Protein)
			for i, real := 0, 0; real < n || slices.Contains(empties, i); i++ {
				if slices.Contains(empties, i) {
					db.AddEncoded("empty", "", nil)
					continue
				}
				// Unequal lengths, so lanes retire and refill one at a time.
				db.AddEncoded("s", "", randSeq(rng, 5+rng.Intn(40)))
				real++
			}
			checkAgainstOracle(t, p, e, q, db)
		}
	}
}

// TestInterSeqNarrowLanes covers parameter sets that leave the 7-bit
// lanes no usable range: every subject must take the escalation route
// and still equal the oracle.
func TestInterSeqNarrowLanes(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	wide := scoring.Simple("wide", alphabet.Protein.Len(), alphabet.Protein.Core(), 120, -3)
	for _, p := range []sw.Params{
		{Matrix: wide, Gaps: scoring.DefaultGaps},
		{Matrix: scoring.BLOSUM62, Gaps: scoring.Gaps{Start: 100, Extend: 10}},
	} {
		e := NewInterSeq(p)
		if !e.narrow {
			t.Fatalf("%s %+v: expected narrow lanes", p.Matrix.Name(), p.Gaps)
		}
		q := randSeq(rng, 70)
		db := seq.NewSet(alphabet.Protein)
		db.AddEncoded("self", "", q)
		db.AddEncoded("empty", "", nil)
		for i := 0; i < 10; i++ {
			db.AddEncoded("s", "", randSeq(rng, 1+rng.Intn(90)))
		}
		checkAgainstOracle(t, p, e, q, db)
	}
}

// TestHugeGapCosts is the regression test for gap costs that do not fit
// a lane: they used to be truncated (uint8(260) = 4, uint16(70002) =
// 4466), so the kernels opened gaps the oracle would not.
func TestHugeGapCosts(t *testing.T) {
	q := alphabet.Protein.MustEncode("MKWVTFISLLFLFSSAYSRGVFRRDAHKSEVAHRFKDLGE")
	// The subject drops 4 residues from the middle of the query: cheap
	// gaps bridge the halves, real ones must not.
	gapped := append(slices.Clone(q[:18]), q[22:]...)
	// Long enough for a bridged score to pass 4466, the truncation of a
	// 70002 open cost in 16-bit lanes.
	long := randSeq(rand.New(rand.NewSource(31)), 2400)
	longGapped := append(slices.Clone(long[:1200]), long[1201:]...)
	for _, tc := range []struct {
		gaps           scoring.Gaps
		query, subject []byte
	}{
		{scoring.Gaps{Start: 250, Extend: 10}, q, gapped},
		{scoring.Gaps{Start: 10, Extend: 260}, q, gapped},
		{scoring.Gaps{Start: 70000, Extend: 2}, long, longGapped},
		{scoring.Gaps{Start: 2, Extend: 70000}, long, longGapped},
	} {
		p := sw.Params{Matrix: scoring.BLOSUM62, Gaps: tc.gaps}
		db := seq.NewSet(alphabet.Protein)
		db.AddEncoded("gapped", "", tc.subject)
		for _, eng := range []sw.Engine{NewInterSeq(p), NewStriped(p)} {
			checkAgainstOracle(t, p, eng, tc.query, db)
		}
	}
}
