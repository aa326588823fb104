// Package fasta implements streaming readers and writers for the FASTA
// sequence format (Pearson 1990, [17] in the paper). The master and the
// workers both accept FASTA input and convert it to the binary format of
// package seqdb for random access (paper §IV).
package fasta

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"strings"

	"swdual/internal/alphabet"
	"swdual/internal/seq"
)

// Record is one raw FASTA record: the header line without '>' and the
// concatenated ASCII residue lines.
type Record struct {
	Header string
	Seq    []byte
}

// ID returns the first whitespace-delimited word of the header.
func (r *Record) ID() string {
	if i := strings.IndexAny(r.Header, " \t"); i >= 0 {
		return r.Header[:i]
	}
	return r.Header
}

// Desc returns the header after the first word, trimmed.
func (r *Record) Desc() string {
	if i := strings.IndexAny(r.Header, " \t"); i >= 0 {
		return strings.TrimSpace(r.Header[i+1:])
	}
	return ""
}

// Reader streams records from FASTA text. It tolerates CRLF line endings,
// blank lines between records, and arbitrary line wrapping.
type Reader struct {
	br      *bufio.Reader
	pending string // header of the next record, already consumed
	started bool
	line    int
}

// NewReader wraps r in a FASTA Reader.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, 1<<16)}
}

// Next returns the next record, or io.EOF after the last one.
func (fr *Reader) Next() (*Record, error) {
	var header string
	if fr.pending != "" {
		header = fr.pending
		fr.pending = ""
	} else {
		for {
			line, err := fr.readLine()
			if err != nil {
				return nil, err
			}
			if len(line) == 0 {
				continue
			}
			if line[0] != '>' {
				if !fr.started {
					return nil, fmt.Errorf("fasta: line %d: expected '>' header, got %q", fr.line, truncate(line))
				}
				return nil, fmt.Errorf("fasta: line %d: residue data outside a record", fr.line)
			}
			header = string(line[1:])
			break
		}
	}
	fr.started = true
	var body bytes.Buffer
	for {
		line, err := fr.readLine()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if len(line) == 0 {
			continue
		}
		if line[0] == '>' {
			fr.pending = string(line[1:])
			break
		}
		body.Write(line)
	}
	return &Record{Header: header, Seq: body.Bytes()}, nil
}

func (fr *Reader) readLine() ([]byte, error) {
	line, err := fr.br.ReadBytes('\n')
	if len(line) == 0 && err != nil {
		return nil, err
	}
	fr.line++
	line = bytes.TrimRight(line, "\r\n")
	line = bytes.TrimSpace(line)
	return line, nil
}

func truncate(b []byte) string {
	if len(b) > 32 {
		return string(b[:32]) + "..."
	}
	return string(b)
}

// ReadSet reads FASTA text and encodes it into a seq.Set over the given
// alphabet. Unknown residues are replaced by the alphabet's catch-all code
// (X or N) when lossy is true, otherwise they are an error.
func ReadSet(r io.Reader, a *alphabet.Alphabet, lossy bool) (*seq.Set, error) {
	set := seq.NewSet(a)
	fr := NewReader(r)
	for {
		rec, err := fr.Next()
		if err == io.EOF {
			return set, nil
		}
		if err != nil {
			return nil, err
		}
		if lossy {
			sub, ok := a.AnyCode()
			if !ok {
				return nil, fmt.Errorf("fasta: alphabet %s has no substitute code for lossy decoding", a.Name())
			}
			enc, _ := a.EncodeLossy(rec.Seq, sub)
			set.AddEncoded(rec.ID(), rec.Desc(), enc)
			continue
		}
		if err := set.Add(rec.ID(), rec.Desc(), rec.Seq); err != nil {
			return nil, err
		}
	}
}

// ReadFile reads a FASTA file into a seq.Set.
func ReadFile(path string, a *alphabet.Alphabet, lossy bool) (*seq.Set, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadSet(f, a, lossy)
}

// Writer emits FASTA text with a configurable wrap column.
type Writer struct {
	bw   *bufio.Writer
	Wrap int // residues per line; <=0 means no wrapping
}

// NewWriter returns a Writer with the conventional 60-column wrap.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriterSize(w, 1<<16), Wrap: 60}
}

// WriteSequence writes one encoded sequence, decoding it with the alphabet.
func (w *Writer) WriteSequence(a *alphabet.Alphabet, s *seq.Sequence) error {
	header := s.ID
	if s.Desc != "" {
		header += " " + s.Desc
	}
	if _, err := fmt.Fprintf(w.bw, ">%s\n", header); err != nil {
		return err
	}
	return w.writeWrapped(a.Decode(s.Residues))
}

func (w *Writer) writeWrapped(ascii []byte) error {
	if w.Wrap <= 0 {
		w.bw.Write(ascii)
		return w.bw.WriteByte('\n')
	}
	for len(ascii) > 0 {
		n := w.Wrap
		if n > len(ascii) {
			n = len(ascii)
		}
		if _, err := w.bw.Write(ascii[:n]); err != nil {
			return err
		}
		if err := w.bw.WriteByte('\n'); err != nil {
			return err
		}
		ascii = ascii[n:]
	}
	return nil
}

// Flush flushes buffered output.
func (w *Writer) Flush() error { return w.bw.Flush() }

// WriteSet writes an entire set as FASTA.
func WriteSet(w io.Writer, set *seq.Set) error {
	fw := NewWriter(w)
	for i := range set.Seqs {
		if err := fw.WriteSequence(set.Alpha, &set.Seqs[i]); err != nil {
			return err
		}
	}
	return fw.Flush()
}
