package fasta

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"testing/quick"

	"swdual/internal/alphabet"
	"swdual/internal/seq"
	"swdual/internal/synth"
)

// readAll reads every record from r.
func readAll(r io.Reader) ([]*Record, error) {
	fr := NewReader(r)
	var out []*Record
	for {
		rec, err := fr.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
}

func TestReaderBasic(t *testing.T) {
	in := ">seq1 first sequence\nARND\nCQEG\n>seq2\nHILK\n"
	recs, err := readAll(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("%d records, want 2", len(recs))
	}
	if recs[0].ID() != "seq1" || recs[0].Desc() != "first sequence" {
		t.Fatalf("header parse: %q / %q", recs[0].ID(), recs[0].Desc())
	}
	if string(recs[0].Seq) != "ARNDCQEG" {
		t.Fatalf("seq1 %q", recs[0].Seq)
	}
	if recs[1].ID() != "seq2" || recs[1].Desc() != "" {
		t.Fatalf("seq2 header %q/%q", recs[1].ID(), recs[1].Desc())
	}
}

func TestReaderCRLFAndBlankLines(t *testing.T) {
	in := ">a desc\r\nAR\r\n\r\nND\r\n\r\n>b\r\nCQ\r\n"
	recs, err := readAll(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || string(recs[0].Seq) != "ARND" || string(recs[1].Seq) != "CQ" {
		t.Fatalf("CRLF parse failed: %+v", recs)
	}
}

func TestReaderErrors(t *testing.T) {
	if _, err := readAll(strings.NewReader("ARND\n")); err == nil {
		t.Fatal("residues before any header must fail")
	}
	recs, err := readAll(strings.NewReader(""))
	if err != nil || len(recs) != 0 {
		t.Fatalf("empty input: %v %v", recs, err)
	}
}

func TestReaderEOFWithoutNewline(t *testing.T) {
	recs, err := readAll(strings.NewReader(">x\nARND"))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || string(recs[0].Seq) != "ARND" {
		t.Fatalf("missing trailing newline: %+v", recs)
	}
}

func TestNextIterator(t *testing.T) {
	r := NewReader(strings.NewReader(">a\nAR\n>b\nND\n"))
	first, err := r.Next()
	if err != nil || first.ID() != "a" {
		t.Fatalf("first: %v %v", first, err)
	}
	second, err := r.Next()
	if err != nil || second.ID() != "b" {
		t.Fatalf("second: %v %v", second, err)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestReadSetStrictAndLossy(t *testing.T) {
	in := ">a\nAR#D\n"
	if _, err := ReadSet(strings.NewReader(in), alphabet.Protein, false); err == nil {
		t.Fatal("strict mode must reject '#'")
	}
	set, err := ReadSet(strings.NewReader(in), alphabet.Protein, true)
	if err != nil {
		t.Fatal(err)
	}
	x, _ := alphabet.Protein.AnyCode()
	if set.Seqs[0].Residues[2] != x {
		t.Fatalf("lossy substitution failed: %v", set.Seqs[0].Residues)
	}
}

var nine = seq.Sequence{ID: "x", Residues: alphabet.Protein.MustEncode("ARNDCQEGH")}

func TestWriterWrapping(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Wrap = 4
	if err := w.WriteSequence(alphabet.Protein, &nine); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	want := ">x\nARND\nCQEG\nH\n"
	if buf.String() != want {
		t.Fatalf("wrapped output %q, want %q", buf.String(), want)
	}
}

func TestWriterNoWrap(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Wrap = 0
	w.WriteSequence(alphabet.Protein, &nine)
	w.Flush()
	if buf.String() != ">x\nARNDCQEGH\n" {
		t.Fatalf("unwrapped output %q", buf.String())
	}
}

func TestSetRoundTrip(t *testing.T) {
	set := synth.RandomSet(alphabet.Protein, 25, 1, 200, 5)
	var buf bytes.Buffer
	if err := WriteSet(&buf, set); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSet(&buf, alphabet.Protein, false)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != set.Len() {
		t.Fatalf("%d sequences, want %d", back.Len(), set.Len())
	}
	for i := range set.Seqs {
		if set.Seqs[i].ID != back.Seqs[i].ID {
			t.Fatalf("id mismatch at %d", i)
		}
		if !bytes.Equal(set.Seqs[i].Residues, back.Seqs[i].Residues) {
			t.Fatalf("residue mismatch at %d", i)
		}
	}
}

// Property: WriteSet then ReadSet is the identity on random sets.
func TestQuickSetRoundTrip(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		set := synth.RandomSet(alphabet.Protein, int(n%40)+1, 0, 120, seed)
		var buf bytes.Buffer
		if err := WriteSet(&buf, set); err != nil {
			return false
		}
		back, err := ReadSet(&buf, alphabet.Protein, false)
		if err != nil {
			return false
		}
		if back.Len() != set.Len() {
			return false
		}
		for i := range set.Seqs {
			if !bytes.Equal(set.Seqs[i].Residues, back.Seqs[i].Residues) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
