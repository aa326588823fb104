package seq

import (
	"testing"

	"swdual/internal/alphabet"
)

func build(t *testing.T) *Set {
	t.Helper()
	s := NewSet(alphabet.Protein)
	for _, rec := range []struct {
		id  string
		res string
	}{
		{"b", "ARNDC"},
		{"a", "AR"},
		{"c", "ARNDCQEGH"},
		{"d", "AR"},
	} {
		if err := s.Add(rec.id, "", []byte(rec.res)); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestNewSetDefaultsToProtein(t *testing.T) {
	if NewSet(nil).Alpha != alphabet.Protein {
		t.Fatal("nil alphabet should default to protein")
	}
}

func TestAddRejectsInvalid(t *testing.T) {
	s := NewSet(alphabet.Protein)
	if err := s.Add("bad", "", []byte("AR#")); err == nil {
		t.Fatal("expected encode error")
	}
}

func TestSliceAndClone(t *testing.T) {
	s := build(t)
	sub := s.Slice(1, 3)
	if sub.Len() != 2 || sub.Seqs[0].ID != "a" {
		t.Fatalf("slice %+v", sub.Seqs)
	}
	c := s.Clone()
	c.Seqs[0].Residues[0] = 99
	if s.Seqs[0].Residues[0] == 99 {
		t.Fatal("clone shares residue storage")
	}
}

func TestTotalResidues(t *testing.T) {
	s := build(t)
	if s.TotalResidues() != 18 {
		t.Fatalf("total %d", s.TotalResidues())
	}
}

// TestPrecomputedChecksum pins the contract the mapped database relies
// on: a checksum installed by SetPrecomputedChecksum is returned as-is,
// either way of appending invalidates it back to the scanned value, and
// Clone carries it over.
func TestPrecomputedChecksum(t *testing.T) {
	s := build(t)
	scanned := s.Checksum()

	s.SetPrecomputedChecksum(scanned)
	if got := s.Checksum(); got != scanned {
		t.Fatalf("precomputed checksum %08x, want the installed %08x", got, scanned)
	}
	// A wrong precomputed value is trusted verbatim — that is the whole
	// point (the .swdb header was verified at write time, not re-scanned
	// at open) — so installing junk must surface as junk.
	s.SetPrecomputedChecksum(scanned + 1)
	if got := s.Checksum(); got != scanned+1 {
		t.Fatalf("precomputed checksum %08x, want %08x", got, scanned+1)
	}

	// Mutation invalidates: Add and AddEncoded both change content.
	s.SetPrecomputedChecksum(scanned)
	if err := s.Add("e", "", []byte("ARN")); err != nil {
		t.Fatal(err)
	}
	if got := s.Checksum(); got == scanned {
		t.Fatal("Add did not invalidate the precomputed checksum")
	}

	s2 := build(t)
	s2.SetPrecomputedChecksum(12345)
	s2.AddEncoded("e", "", alphabet.Protein.MustEncode("ARN"))
	if got := s2.Checksum(); got == 12345 {
		t.Fatal("AddEncoded did not invalidate the precomputed checksum")
	}

	// Clone propagates the trusted value (same content, same order).
	s3 := build(t)
	s3.SetPrecomputedChecksum(777)
	if got := s3.Clone().Checksum(); got != 777 {
		t.Fatalf("clone checksum %08x, want the propagated 777", got)
	}
}
