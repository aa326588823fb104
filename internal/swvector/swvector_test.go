package swvector

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"swdual/internal/alphabet"
	"swdual/internal/scoring"
	"swdual/internal/seq"
	"swdual/internal/sw"
	"swdual/internal/synth"
)

func randSeq(rng *rand.Rand, n int) []byte {
	s := make([]byte, n)
	for i := range s {
		s[i] = byte(rng.Intn(alphabet.Protein.Core()))
	}
	return s
}

func TestSWARPrimitives8(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 2000; iter++ {
		var a, b uint64
		var wantAdd, wantSub, wantMax uint64
		for l := 0; l < 8; l++ {
			x := uint8(rng.Intn(256))
			y := uint8(rng.Intn(256))
			a = withByte(a, l, x)
			b = withByte(b, l, y)
			s := int(x) + int(y)
			if s > 255 {
				s = 255
			}
			d := int(x) - int(y)
			if d < 0 {
				d = 0
			}
			m := x
			if y > m {
				m = y
			}
			wantAdd = withByte(wantAdd, l, uint8(s))
			wantSub = withByte(wantSub, l, uint8(d))
			wantMax = withByte(wantMax, l, m)
		}
		if got := addSat8(a, b); got != wantAdd {
			t.Fatalf("addSat8(%016x,%016x)=%016x want %016x", a, b, got, wantAdd)
		}
		if got := subSat8(a, b); got != wantSub {
			t.Fatalf("subSat8(%016x,%016x)=%016x want %016x", a, b, got, wantSub)
		}
		if got := max8(a, b); got != wantMax {
			t.Fatalf("max8(%016x,%016x)=%016x want %016x", a, b, got, wantMax)
		}
		if got, want := anyGT8(a, b), wantSub != 0; got != want {
			t.Fatalf("anyGT8(%016x,%016x)=%v want %v", a, b, got, want)
		}
	}
}

// withLane16 returns x with 16-bit lane l replaced by v.
func withLane16(x uint64, l int, v uint16) uint64 {
	sh := uint(16 * l)
	return x&^(uint64(0xFFFF)<<sh) | uint64(v)<<sh
}

func TestSWARPrimitives16(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for iter := 0; iter < 2000; iter++ {
		var a, b uint64
		var wantAdd, wantSub, wantMax uint64
		for l := 0; l < 4; l++ {
			x := uint16(rng.Intn(65536))
			y := uint16(rng.Intn(65536))
			a = withLane16(a, l, x)
			b = withLane16(b, l, y)
			s := int(x) + int(y)
			if s > 65535 {
				s = 65535
			}
			d := int(x) - int(y)
			if d < 0 {
				d = 0
			}
			m := x
			if y > m {
				m = y
			}
			wantAdd = withLane16(wantAdd, l, uint16(s))
			wantSub = withLane16(wantSub, l, uint16(d))
			wantMax = withLane16(wantMax, l, m)
		}
		if got := addSat16(a, b); got != wantAdd {
			t.Fatalf("addSat16(%016x,%016x)=%016x want %016x", a, b, got, wantAdd)
		}
		if got := subSat16(a, b); got != wantSub {
			t.Fatalf("subSat16(%016x,%016x)=%016x want %016x", a, b, got, wantSub)
		}
		if got := max16(a, b); got != wantMax {
			t.Fatalf("max16(%016x,%016x)=%016x want %016x", a, b, got, wantMax)
		}
	}
}

func params() sw.Params {
	return sw.Params{Matrix: scoring.BLOSUM62, Gaps: scoring.DefaultGaps}
}

func TestStriped8MatchesScalar(t *testing.T) {
	p := params()
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 300; iter++ {
		q := randSeq(rng, 1+rng.Intn(90))
		d := randSeq(rng, 1+rng.Intn(120))
		want := sw.Score(p, q, d)
		prof, err := scoring.NewStripedProfile8(p.Matrix, q)
		if err != nil {
			t.Fatal(err)
		}
		got, over := scoreStriped8(prof, p.Gaps, d)
		if over {
			continue // saturated; escalation path is tested separately
		}
		if got != want {
			t.Fatalf("iter %d: striped8=%d scalar=%d (|q|=%d |d|=%d)", iter, got, want, len(q), len(d))
		}
	}
}

func TestStriped16MatchesScalar(t *testing.T) {
	p := params()
	rng := rand.New(rand.NewSource(4))
	for iter := 0; iter < 200; iter++ {
		q := randSeq(rng, 1+rng.Intn(150))
		d := randSeq(rng, 1+rng.Intn(200))
		want := sw.Score(p, q, d)
		prof := scoring.NewStripedProfile16(p.Matrix, q)
		got, over := scoreStriped16(prof, p.Gaps, d)
		if over {
			t.Fatalf("unexpected 16-bit overflow for |q|=%d |d|=%d", len(q), len(d))
		}
		if got != want {
			t.Fatalf("iter %d: striped16=%d scalar=%d (|q|=%d |d|=%d)", iter, got, want, len(q), len(d))
		}
	}
}

func TestStripedOverflowEscalation(t *testing.T) {
	p := params()
	// Identical long sequences force scores far beyond 8 bits.
	q := make([]byte, 400)
	for i := range q {
		q[i] = byte(i % 20)
	}
	want := sw.Score(p, q, q)
	if want < 255 {
		t.Fatalf("self-score %d too small to exercise overflow", want)
	}
	prof8, err := scoring.NewStripedProfile8(p.Matrix, q)
	if err != nil {
		t.Fatal(err)
	}
	_, over := scoreStriped8(prof8, p.Gaps, q)
	if !over {
		t.Fatal("expected 8-bit overflow")
	}
	db := seq.NewSet(alphabet.Protein)
	db.AddEncoded("self", "", q)
	eng := NewStriped(p)
	if got := eng.Scores(q, db)[0]; got != want {
		t.Fatalf("escalated score=%d want %d", got, want)
	}
}

// eachKernel runs f once per column kernel of the inter-sequence engine,
// as subtests swar and avx2; the latter skips on a CPU without AVX2.
// newEngine builds the engine on that kernel.
func eachKernel(t *testing.T, f func(t *testing.T, newEngine func(sw.Params) *InterSeq)) {
	t.Run("swar", func(t *testing.T) {
		f(t, func(p sw.Params) *InterSeq { return newInterSeq(p, false) })
	})
	t.Run("avx2", func(t *testing.T) {
		if !hasAVX2 {
			t.Skip("this CPU has no AVX2")
		}
		f(t, func(p sw.Params) *InterSeq { return newInterSeq(p, true) })
	})
}

func TestInterSeqMatchesScalar(t *testing.T) {
	eachKernel(t, func(t *testing.T, newEngine func(sw.Params) *InterSeq) {
		p := params()
		rng := rand.New(rand.NewSource(5))
		for iter := 0; iter < 20; iter++ {
			q := randSeq(rng, 1+rng.Intn(80))
			db := synth.RandomSet(alphabet.Protein, 1+rng.Intn(70), 1, 150, int64(iter))
			checkAgainstOracle(t, p, newEngine(p), q, db)
		}
	})
}

func TestInterSeqEmptyAndTiny(t *testing.T) {
	p := params()
	db := seq.NewSet(alphabet.Protein)
	db.AddEncoded("empty", "", nil)
	db.AddEncoded("one", "", []byte{0})
	db.AddEncoded("empty2", "", nil)
	q := alphabet.Protein.MustEncode("ARNDA")
	eachKernel(t, func(t *testing.T, newEngine func(sw.Params) *InterSeq) {
		checkAgainstOracle(t, p, newEngine(p), q, db)
	})
}

func TestStripedAndInterSeqAgree(t *testing.T) {
	p := params()
	db := synth.RandomSet(alphabet.Protein, 30, 1, 200, 63)
	q := randSeq(rand.New(rand.NewSource(64)), 90)
	striped := NewStriped(p).Scores(q, db)
	eachKernel(t, func(t *testing.T, newEngine func(sw.Params) *InterSeq) {
		inter := newEngine(p).Scores(q, db)
		for i := range striped {
			if striped[i] != inter[i] {
				t.Fatalf("seq %d: striped=%d interseq=%d", i, striped[i], inter[i])
			}
		}
	})
}

// TestQuickStripedEqualsScalar is the module's central property-based
// check: for arbitrary sequences the striped engine equals the oracle.
func TestQuickStripedEqualsScalar(t *testing.T) {
	p := params()
	eng := NewStriped(p)
	f := func(qr, dr []byte) bool {
		q := clampResidues(qr, 120)
		d := clampResidues(dr, 160)
		if len(q) == 0 || len(d) == 0 {
			return true
		}
		db := seq.NewSet(alphabet.Protein)
		db.AddEncoded("x", "", d)
		return eng.Scores(q, db)[0] == sw.Score(p, q, d)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickInterSeqEqualsScalar property-checks the inter-sequence engine.
func TestQuickInterSeqEqualsScalar(t *testing.T) {
	eachKernel(t, func(t *testing.T, newEngine func(sw.Params) *InterSeq) {
		p := params()
		eng := newEngine(p)
		f := func(qr []byte, subjects [][]byte) bool {
			q := clampResidues(qr, 100)
			if len(q) == 0 {
				return true
			}
			db := seq.NewSet(alphabet.Protein)
			for i, s := range subjects {
				if i == 40 {
					break
				}
				db.AddEncoded("s", "", clampResidues(s, 140))
			}
			if db.Len() == 0 {
				return true
			}
			return slices.Equal(eng.Scores(q, db), sw.NewScalar(p).Scores(q, db))
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
			t.Fatal(err)
		}
	})
}

// clampResidues maps arbitrary fuzz bytes into valid residue codes and
// bounds the length so the oracle stays fast.
func clampResidues(b []byte, maxLen int) []byte {
	if len(b) > maxLen {
		b = b[:maxLen]
	}
	out := make([]byte, len(b))
	for i, v := range b {
		out[i] = v % byte(alphabet.Protein.Len())
	}
	return out
}

// TestZeroOpenGapRegression pins the case the cross-engine suite caught:
// with Gs == 0 (open cost equal to extend cost) the classic lazy-F early
// termination under-corrects; the kernels must route to the exact
// propagation path. Minimal shrunk reproducer from BLOSUM50 Gs=0 Ge=4.
func TestZeroOpenGapRegression(t *testing.T) {
	q := []byte{15, 3, 1, 4, 2, 0, 15, 14, 6, 3, 7, 7, 15, 0, 14, 0, 3, 10, 18, 2, 15, 15, 16, 0, 13, 8, 15, 9, 0, 0, 16, 1, 14, 4, 13, 16, 19, 6, 14, 5, 3, 9, 10, 11, 7, 10, 14, 7, 18}
	d := []byte{16, 11, 18, 1, 11, 19, 15, 14, 16, 10, 2, 11, 6, 10, 10, 7}
	p := sw.Params{Matrix: scoring.BLOSUM50, Gaps: scoring.Gaps{Start: 0, Extend: 4}}
	want := sw.Score(p, q, d)
	db := seq.NewSet(alphabet.Protein)
	db.AddEncoded("x", "", d)
	for _, eng := range append(interSeqs(p), NewStriped(p)) {
		if got := eng.Scores(q, db)[0]; got != want {
			t.Fatalf("%s: got %d want %d", eng.Name(), got, want)
		}
	}
}

// interSeqs returns the inter-sequence engine on every column kernel this
// CPU can run, for tests that loop over engines.
func interSeqs(p sw.Params) []sw.Engine {
	engines := []sw.Engine{newInterSeq(p, false)}
	if hasAVX2 {
		engines = append(engines, newInterSeq(p, true))
	}
	return engines
}

// TestQuickStripedZeroOpenGap fuzzes the exact-propagation path.
func TestQuickStripedZeroOpenGap(t *testing.T) {
	p := sw.Params{Matrix: scoring.BLOSUM62, Gaps: scoring.Gaps{Start: 0, Extend: 3}}
	eng := NewStriped(p)
	f := func(qr, dr []byte) bool {
		q := clampResidues(qr, 100)
		d := clampResidues(dr, 120)
		if len(q) == 0 || len(d) == 0 {
			return true
		}
		db := seq.NewSet(alphabet.Protein)
		db.AddEncoded("x", "", d)
		return eng.Scores(q, db)[0] == sw.Score(p, q, d)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
