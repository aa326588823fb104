package scoring

import (
	"testing"

	"swdual/internal/alphabet"
)

func TestBuiltinMatricesAreSymmetric(t *testing.T) {
	for _, m := range []*Matrix{BLOSUM62, BLOSUM50, PAM250, DNASimple} {
		for i := 0; i < m.Size(); i++ {
			for j := i + 1; j < m.Size(); j++ {
				if m.Score(byte(i), byte(j)) != m.Score(byte(j), byte(i)) {
					t.Fatalf("%s is not symmetric at %d,%d", m.Name(), i, j)
				}
			}
		}
		if m.Size() == 0 {
			t.Fatalf("%s has size 0", m.Name())
		}
	}
}

func TestBLOSUM62KnownValues(t *testing.T) {
	a := alphabet.Protein
	cases := []struct {
		x, y byte
		want int
	}{
		{'A', 'A', 4}, {'W', 'W', 11}, {'C', 'C', 9},
		{'A', 'R', -1}, {'W', 'C', -2}, {'E', 'Z', 4},
		{'N', 'B', 3}, {'*', '*', 1}, {'A', '*', -4},
	}
	for _, c := range cases {
		xy := a.MustEncode(string([]byte{c.x, c.y}))
		got := BLOSUM62.Score(xy[0], xy[1])
		if got != c.want {
			t.Fatalf("BLOSUM62[%c][%c] = %d, want %d", c.x, c.y, got, c.want)
		}
	}
	if BLOSUM62.Max() != 11 {
		t.Fatalf("BLOSUM62 max %d, want 11 (W-W)", BLOSUM62.Max())
	}
	if BLOSUM62.Min() != -4 {
		t.Fatalf("BLOSUM62 min %d, want -4", BLOSUM62.Min())
	}
}

func TestDiagonalDominatesRow(t *testing.T) {
	// In BLOSUM matrices every residue matches itself at least as well as
	// any substitution (within the 20 core residues).
	for i := 0; i < 20; i++ {
		self := BLOSUM62.Score(byte(i), byte(i))
		for j := 0; j < 20; j++ {
			if v := BLOSUM62.Score(byte(i), byte(j)); v > self {
				t.Fatalf("BLOSUM62[%d][%d]=%d exceeds self score %d", i, j, v, self)
			}
		}
	}
}

func TestGaps(t *testing.T) {
	if err := DefaultGaps.Validate(); err != nil {
		t.Fatal(err)
	}
	if DefaultGaps.OpenCost() != 12 {
		t.Fatalf("open cost %d, want 12", DefaultGaps.OpenCost())
	}
	if err := (Gaps{Start: -1, Extend: 2}).Validate(); err == nil {
		t.Fatal("negative Gs must fail")
	}
	if err := (Gaps{Start: 10, Extend: 0}).Validate(); err == nil {
		t.Fatal("zero Ge must fail")
	}
}

func TestSelfScore(t *testing.T) {
	seq := alphabet.Protein.MustEncode("AW")
	if got := BLOSUM62.SelfScore(seq); got != 4+11 {
		t.Fatalf("self score %d, want 15", got)
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"BLOSUM62", "blosum50", "PAM250", "dna"} {
		if _, err := ByName(name); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if _, err := ByName("BLOSUM999"); err == nil {
		t.Fatal("expected error")
	}
}

func TestSimpleMatrix(t *testing.T) {
	m := Simple("test", 5, 4, 2, -3)
	if m.Score(0, 0) != 2 || m.Score(0, 1) != -3 {
		t.Fatal("match/mismatch wrong")
	}
	// Ambiguity code (index 4) mismatches everything, itself included.
	if m.Score(4, 4) != -3 {
		t.Fatalf("ambiguity self score %d, want -3", m.Score(4, 4))
	}
}

func TestNewMatrixErrors(t *testing.T) {
	if _, err := NewMatrix("empty", nil); err == nil {
		t.Fatal("empty table must fail")
	}
	if _, err := NewMatrix("ragged", [][]int8{{1, 2}, {3}}); err == nil {
		t.Fatal("ragged table must fail")
	}
}

func TestStripedProfile8Layout(t *testing.T) {
	q := alphabet.Protein.MustEncode("ARNDCQEGH") // length 9 -> segLen 2
	p, err := NewStripedProfile8(BLOSUM62, q)
	if err != nil {
		t.Fatal(err)
	}
	if p.SegLen != 2 {
		t.Fatalf("segLen %d, want 2", p.SegLen)
	}
	if p.Bias != 4 {
		t.Fatalf("bias %d, want 4", p.Bias)
	}
	// Lane l of word s corresponds to query position s + l*segLen.
	for r := 0; r < BLOSUM62.Size(); r++ {
		for s := 0; s < p.SegLen; s++ {
			w := p.Rows[r][s]
			for l := 0; l < Lanes8; l++ {
				got := int(uint8(w>>(8*l))) - int(p.Bias)
				pos := s + l*p.SegLen
				want := -int(p.Bias)
				if pos < len(q) {
					want = BLOSUM62.Score(byte(r), q[pos])
				}
				if got != want {
					t.Fatalf("r=%d s=%d l=%d: %d want %d", r, s, l, got, want)
				}
			}
		}
	}
}

func TestStripedProfile16Layout(t *testing.T) {
	q := alphabet.Protein.MustEncode("ARNDC")
	p := NewStripedProfile16(BLOSUM62, q)
	if p.SegLen != 2 {
		t.Fatalf("segLen %d, want 2", p.SegLen)
	}
	for r := 0; r < BLOSUM62.Size(); r++ {
		for s := 0; s < p.SegLen; s++ {
			w := p.Rows[r][s]
			for l := 0; l < Lanes16; l++ {
				got := int(uint16(w>>(16*l))) - int(p.Bias)
				pos := s + l*p.SegLen
				want := -int(p.Bias)
				if pos < len(q) {
					want = BLOSUM62.Score(byte(r), q[pos])
				}
				if got != want {
					t.Fatalf("r=%d s=%d l=%d: %d want %d", r, s, l, got, want)
				}
			}
		}
	}
}
