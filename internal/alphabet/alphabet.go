// Package alphabet defines residue alphabets for biological sequences and
// the dense integer encoding used by every alignment engine in this module.
//
// Sequences are stored as []byte of small residue codes (not ASCII). The
// protein alphabet follows the NCBIstdaa ordering commonly used by
// Smith-Waterman implementations: the 20 standard amino acids first, then
// the ambiguity codes B, Z, X and the terminator '*'. DNA and RNA alphabets
// cover the four bases plus N.
package alphabet

import (
	"fmt"
	"strings"
)

// Alphabet maps between ASCII residue letters and dense residue codes.
// The zero value is not useful; use one of the package-level alphabets or
// New.
type Alphabet struct {
	name    string
	letters string    // index = code, value = canonical letter
	codes   [256]int8 // index = ASCII byte, value = code or -1
	// cardinality of the "unambiguous" prefix (e.g. 20 for proteins):
	// synthetic generators draw only from this prefix.
	core int
}

// Unknown marks letters outside the alphabet in the code table.
const Unknown = -1

// New builds an Alphabet from the canonical letter set. Lower-case input
// letters are accepted and fold to upper case. core is the number of leading
// letters considered unambiguous residues.
func New(name, letters string, core int) *Alphabet {
	if core < 0 || core > len(letters) {
		panic(fmt.Sprintf("alphabet: core %d out of range for %q", core, letters))
	}
	a := &Alphabet{name: name, letters: letters, core: core}
	for i := range a.codes {
		a.codes[i] = Unknown
	}
	for i := 0; i < len(letters); i++ {
		u := letters[i]
		a.codes[u] = int8(i)
		a.codes[lower(u)] = int8(i)
	}
	return a
}

func lower(b byte) byte {
	if b >= 'A' && b <= 'Z' {
		return b + 'a' - 'A'
	}
	return b
}

// Protein is the 25-letter protein alphabet used throughout: the 20 standard
// amino acids, ambiguity codes B (Asx), Z (Glx), X (any) and the stop '*'.
// The ordering matches the row/column ordering of the matrices in package
// scoring.
var Protein = New("protein", "ARNDCQEGHILKMFPSTWYVBZX*", 20)

// DNA is the nucleotide alphabet ACGT plus the ambiguity code N.
var DNA = New("dna", "ACGTN", 4)

// RNA is the nucleotide alphabet ACGU plus the ambiguity code N.
var RNA = New("rna", "ACGUN", 4)

// Name returns the alphabet's name.
func (a *Alphabet) Name() string { return a.name }

// Len returns the number of residue codes, including ambiguity codes.
func (a *Alphabet) Len() int { return len(a.letters) }

// Core returns the number of unambiguous residues (20 for proteins).
func (a *Alphabet) Core() int { return a.core }

// Letter returns the canonical ASCII letter for a residue code.
func (a *Alphabet) Letter(code byte) byte {
	if int(code) >= len(a.letters) {
		return '?'
	}
	return a.letters[code]
}

// Encode converts ASCII residues into dense codes. Letters outside the
// alphabet are reported as an error carrying the first offending byte and
// its position. Whitespace is not tolerated here; strip it upstream.
func (a *Alphabet) Encode(ascii []byte) ([]byte, error) {
	out := make([]byte, len(ascii))
	for i, b := range ascii {
		c := a.codes[b]
		if c == Unknown {
			return nil, &EncodeError{Alphabet: a.name, Letter: b, Pos: i}
		}
		out[i] = byte(c)
	}
	return out, nil
}

// MustEncode is Encode for trusted inputs (tests, literals); it panics on
// invalid letters.
func (a *Alphabet) MustEncode(s string) []byte {
	out, err := a.Encode([]byte(s))
	if err != nil {
		panic(err)
	}
	return out
}

// EncodeLossy converts ASCII residues into dense codes, mapping every
// unknown letter to the substitute code (typically X for proteins, N for
// nucleotides). It never fails and reports how many letters were replaced.
func (a *Alphabet) EncodeLossy(ascii []byte, substitute byte) (out []byte, replaced int) {
	out = make([]byte, len(ascii))
	for i, b := range ascii {
		c := a.codes[b]
		if c == Unknown {
			out[i] = substitute
			replaced++
			continue
		}
		out[i] = byte(c)
	}
	return out, replaced
}

// Decode converts dense codes back into ASCII letters.
func (a *Alphabet) Decode(codes []byte) []byte {
	out := make([]byte, len(codes))
	for i, c := range codes {
		out[i] = a.Letter(c)
	}
	return out
}

// DecodeString is Decode returning a string.
func (a *Alphabet) DecodeString(codes []byte) string { return string(a.Decode(codes)) }

// AnyCode returns the code of the catch-all ambiguity residue (X for
// proteins, N for nucleic alphabets) and true, or 0 and false if the
// alphabet has none.
func (a *Alphabet) AnyCode() (byte, bool) {
	switch a.name {
	case "protein":
		return byte(strings.IndexByte(a.letters, 'X')), true
	case "dna", "rna":
		return byte(strings.IndexByte(a.letters, 'N')), true
	}
	return 0, false
}

// EncodeError reports an input letter outside the alphabet.
type EncodeError struct {
	Alphabet string
	Letter   byte
	Pos      int
}

func (e *EncodeError) Error() string {
	return fmt.Sprintf("alphabet %s: invalid residue %q at position %d", e.Alphabet, e.Letter, e.Pos)
}
