package seqdb

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"swdual/internal/alphabet"
	"swdual/internal/seq"
	"swdual/internal/synth"
)

func tempDB(t *testing.T, set *seq.Set) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "test.swdb")
	if err := Create(path, set); err != nil {
		t.Fatal(err)
	}
	return path
}

// openSet opens path and returns the mapping and its set; the mapping is
// closed when the test ends.
func openSet(t *testing.T, path string) (*Mapped, *seq.Set) {
	t.Helper()
	m, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	s, err := m.Set()
	if err != nil {
		t.Fatal(err)
	}
	return m, s
}

// sameSet reports the first difference between two sets' names and
// residues, or "" when they are identical.
func sameSet(got, want *seq.Set) string {
	if got.Len() != want.Len() {
		return "sequence count differs"
	}
	for i := range want.Seqs {
		g, w := &got.Seqs[i], &want.Seqs[i]
		if g.ID != w.ID || g.Desc != w.Desc {
			return "name differs at " + w.ID
		}
		if !bytes.Equal(g.Residues, w.Residues) {
			return "residues differ at " + w.ID
		}
	}
	return ""
}

func TestRoundTrip(t *testing.T) {
	set := synth.RandomSet(alphabet.Protein, 50, 0, 300, 1)
	set.Seqs[3].Desc = "a description with spaces"
	m, back := openSet(t, tempDB(t, set))
	if m.Count() != set.Len() {
		t.Fatalf("count %d, want %d", m.Count(), set.Len())
	}
	if int64(m.TotalResidues()) != set.TotalResidues() {
		t.Fatalf("residues %d, want %d", m.TotalResidues(), set.TotalResidues())
	}
	if m.Alphabet() != alphabet.Protein || back.Alpha != alphabet.Protein {
		t.Fatal("alphabet mismatch")
	}
	if diff := sameSet(back, set); diff != "" {
		t.Fatal(diff)
	}
}

// TestRandomAccess reads sequences out of order through the mapped set —
// the point of the format (§IV): any sequence is addressable directly.
func TestRandomAccess(t *testing.T) {
	set := synth.RandomSet(alphabet.Protein, 40, 1, 100, 2)
	_, back := openSet(t, tempDB(t, set))
	for _, i := range []int{37, 0, 19, 39, 5} {
		if !bytes.Equal(back.Seqs[i].Residues, set.Seqs[i].Residues) {
			t.Fatalf("sequence %d mismatch", i)
		}
		if back.Seqs[i].Len() != set.Seqs[i].Len() {
			t.Fatalf("length %d mismatch: %d vs %d", i, back.Seqs[i].Len(), set.Seqs[i].Len())
		}
	}
}

func TestVerify(t *testing.T) {
	set := synth.RandomSet(alphabet.Protein, 20, 1, 80, 4)
	path := tempDB(t, set)
	m, _ := openSet(t, path)
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
	m.Close()
	// Corrupt one residue byte inside the data section.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[headerSize+10] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	m2, _ := openSet(t, path)
	if err := m2.Verify(); err == nil {
		t.Fatal("corruption must fail verification")
	}
}

func TestBadHeader(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.swdb")
	if err := os.WriteFile(path, []byte("NOPE"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Fatal("short/bad header must fail")
	}
	if err := os.WriteFile(path, append([]byte("XXXX"), make([]byte, headerSize)...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Fatal("bad magic must fail")
	}
}

func TestEmptyAndDNA(t *testing.T) {
	m, _ := openSet(t, tempDB(t, seq.NewSet(alphabet.Protein)))
	if m.Count() != 0 {
		t.Fatalf("empty db count %d", m.Count())
	}

	dna := seq.NewSet(alphabet.DNA)
	dna.AddEncoded("d1", "", alphabet.DNA.MustEncode("ACGTN"))
	m2, back := openSet(t, tempDB(t, dna))
	if m2.Alphabet() != alphabet.DNA || back.Alpha != alphabet.DNA {
		t.Fatal("DNA alphabet not preserved")
	}
	if got := alphabet.DNA.DecodeString(back.Seqs[0].Residues); got != "ACGTN" {
		t.Fatalf("DNA residues %q", got)
	}
}

// Property: write/read round trip over random sets preserves everything.
func TestQuickRoundTrip(t *testing.T) {
	dir := t.TempDir()
	f := func(seed int64, n uint8) bool {
		set := synth.RandomSet(alphabet.Protein, int(n%30)+1, 0, 150, seed)
		path := filepath.Join(dir, "q.swdb")
		if err := Create(path, set); err != nil {
			return false
		}
		db, err := Open(path)
		if err != nil {
			return false
		}
		defer db.Close()
		back, err := db.Set()
		if err != nil || sameSet(back, set) != "" {
			return false
		}
		return db.Verify() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
