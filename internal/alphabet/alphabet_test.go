package alphabet

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestProteinBasics(t *testing.T) {
	if Protein.Len() != 24 {
		t.Fatalf("protein alphabet has %d letters, want 24", Protein.Len())
	}
	if Protein.Core() != 20 {
		t.Fatalf("protein core %d, want 20", Protein.Core())
	}
	if Protein.Name() != "protein" {
		t.Fatalf("name %q", Protein.Name())
	}
	if c := Protein.MustEncode("Aa*"); c[0] != 0 || c[1] != 0 || c[2] != 23 {
		t.Fatalf("codes of A, a, * = %v, want [0 0 23]", c)
	}
	if _, err := Protein.Encode([]byte("J")); err == nil {
		t.Fatal("J encoded; it is not a protein letter")
	}
	if l := Protein.Letter(0); l != 'A' {
		t.Fatalf("letter(0) = %c", l)
	}
	if l := Protein.Letter(200); l != '?' {
		t.Fatalf("letter(200) = %c, want ?", l)
	}
}

func TestDNAAndRNA(t *testing.T) {
	if DNA.Len() != 5 || DNA.Core() != 4 {
		t.Fatalf("DNA %d/%d", DNA.Len(), DNA.Core())
	}
	if _, err := RNA.Encode([]byte("U")); err != nil {
		t.Fatal("RNA should accept U")
	}
	if _, err := DNA.Encode([]byte("U")); err == nil {
		t.Fatal("DNA should reject U")
	}
	n, ok := DNA.AnyCode()
	if !ok || DNA.Letter(n) != 'N' {
		t.Fatalf("DNA AnyCode -> %d/%v", n, ok)
	}
	x, ok := Protein.AnyCode()
	if !ok || Protein.Letter(x) != 'X' {
		t.Fatalf("protein AnyCode -> %d/%v", x, ok)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	in := []byte("ARNDCQEGHILKMFPSTWYVBZX*")
	enc, err := Protein.Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	if got := Protein.Decode(enc); !bytes.Equal(got, in) {
		t.Fatalf("round trip %q != %q", got, in)
	}
	if got := Protein.DecodeString(enc); got != string(in) {
		t.Fatalf("DecodeString %q", got)
	}
}

func TestEncodeErrors(t *testing.T) {
	_, err := Protein.Encode([]byte("ARN!D"))
	ee, ok := err.(*EncodeError)
	if !ok {
		t.Fatalf("expected EncodeError, got %v", err)
	}
	if ee.Pos != 3 || ee.Letter != '!' {
		t.Fatalf("EncodeError %+v", ee)
	}
	if ee.Error() == "" {
		t.Fatal("empty error text")
	}
}

func TestEncodeLossy(t *testing.T) {
	x, _ := Protein.AnyCode()
	out, replaced := Protein.EncodeLossy([]byte("AR!ND?"), x)
	if replaced != 2 {
		t.Fatalf("replaced %d, want 2", replaced)
	}
	if out[2] != x || out[5] != x {
		t.Fatalf("substitutes not applied: %v", out)
	}
}

func TestMustEncodePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Protein.MustEncode("##")
}

// Property: Decode(Encode(x)) is the canonical upper-case form of any
// string drawn from alphabet letters.
func TestQuickRoundTrip(t *testing.T) {
	letters := "ARNDCQEGHILKMFPSTWYVBZX*"
	f := func(idx []byte) bool {
		in := make([]byte, len(idx))
		for i, b := range idx {
			in[i] = letters[int(b)%len(letters)]
		}
		enc, err := Protein.Encode(in)
		if err != nil {
			return false
		}
		return bytes.Equal(Protein.Decode(enc), in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNewPanicsOnBadCore(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New("bad", "AB", 5)
}
