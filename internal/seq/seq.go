// Package seq defines the in-memory representation of biological sequences
// and sequence sets shared by every engine, the database formats and the
// master-slave runtime.
package seq

import (
	"fmt"
	"hash/crc32"

	"swdual/internal/alphabet"
)

// Sequence is one encoded biological sequence. Residues hold dense codes of
// the set's alphabet (see package alphabet), not ASCII.
type Sequence struct {
	ID       string // accession / identifier (first word of a FASTA header)
	Desc     string // rest of the FASTA header, may be empty
	Residues []byte // encoded residues
}

// Len returns the number of residues.
func (s *Sequence) Len() int { return len(s.Residues) }

// Set is an ordered collection of sequences over one alphabet. The zero
// value is an empty protein set.
type Set struct {
	Alpha *alphabet.Alphabet
	Seqs  []Sequence

	// checksum caches the Checksum value when it is known without
	// scanning — a memory-mapped .swdb header records exactly this CRC,
	// and trusting it is what keeps opening a huge corpus O(index)
	// instead of O(data). Add and AddEncoded clear it.
	checksum    uint32
	hasChecksum bool
}

// NewSet returns an empty set over the given alphabet (protein if nil).
func NewSet(a *alphabet.Alphabet) *Set {
	if a == nil {
		a = alphabet.Protein
	}
	return &Set{Alpha: a}
}

// Add appends a sequence built from ASCII residues, encoding them with the
// set's alphabet.
func (st *Set) Add(id, desc string, ascii []byte) error {
	enc, err := st.Alpha.Encode(ascii)
	if err != nil {
		return fmt.Errorf("sequence %s: %w", id, err)
	}
	st.hasChecksum = false
	st.Seqs = append(st.Seqs, Sequence{ID: id, Desc: desc, Residues: enc})
	return nil
}

// AddEncoded appends an already-encoded sequence without validation.
func (st *Set) AddEncoded(id, desc string, residues []byte) {
	st.hasChecksum = false
	st.Seqs = append(st.Seqs, Sequence{ID: id, Desc: desc, Residues: residues})
}

// Len returns the number of sequences in the set.
func (st *Set) Len() int { return len(st.Seqs) }

// TotalResidues returns the sum of sequence lengths; together with query
// lengths it determines the dynamic-programming cell volume of a search.
func (st *Set) TotalResidues() int64 {
	var t int64
	for i := range st.Seqs {
		t += int64(len(st.Seqs[i].Residues))
	}
	return t
}

// Checksum fingerprints the set: the CRC-32 (IEEE) of every sequence's
// encoded residues, in order. This is the one database fingerprint the
// whole module agrees on — the persistent engine, the sharding facade
// and the wire protocol all compare this value to guard against two
// ends holding different sequences.
func (st *Set) Checksum() uint32 {
	if st.hasChecksum {
		return st.checksum
	}
	crc := crc32.NewIEEE()
	for i := range st.Seqs {
		crc.Write(st.Seqs[i].Residues)
	}
	return crc.Sum32()
}

// SetPrecomputedChecksum installs a known Checksum value so later calls
// skip the residue scan. The caller vouches that c is the CRC-32 (IEEE)
// of the set's residues in order — a .swdb header stores exactly that.
// Add and AddEncoded clear it.
func (st *Set) SetPrecomputedChecksum(c uint32) {
	st.checksum, st.hasChecksum = c, true
}

// Slice returns a shallow sub-set covering Seqs[lo:hi].
func (st *Set) Slice(lo, hi int) *Set {
	return &Set{Alpha: st.Alpha, Seqs: st.Seqs[lo:hi]}
}

// Clone returns a deep copy of the set (same content, so a precomputed
// checksum carries over).
func (st *Set) Clone() *Set {
	out := &Set{Alpha: st.Alpha, Seqs: make([]Sequence, len(st.Seqs)),
		checksum: st.checksum, hasChecksum: st.hasChecksum}
	for i := range st.Seqs {
		r := make([]byte, len(st.Seqs[i].Residues))
		copy(r, st.Seqs[i].Residues)
		out.Seqs[i] = Sequence{ID: st.Seqs[i].ID, Desc: st.Seqs[i].Desc, Residues: r}
	}
	return out
}

// Range is a contiguous slice [Lo, Hi) of a set's sequences.
type Range struct {
	Lo, Hi int
}

// Ranges splits the set into parts contiguous ranges of balanced
// residues: SplitRanges over its sequence lengths.
func (st *Set) Ranges(parts int) []Range {
	lengths := make([]int, len(st.Seqs))
	for i := range st.Seqs {
		lengths[i] = st.Seqs[i].Len()
	}
	return SplitRanges(lengths, parts)
}

// SplitRanges partitions n = len(lengths) sequences into parts
// contiguous ranges of balanced residues (parts < 1 counts as 1; fewer
// sequences than parts leaves the tail ranges empty). The ranges are
// deterministic for a given input, in order, and cover [0, n) exactly.
// It is the module's one database split: a cluster's shard servers and
// coordinator cut their ranges with it, and a search engine its chunks.
func SplitRanges(lengths []int, parts int) []Range {
	if parts < 1 {
		parts = 1
	}
	n := len(lengths)
	ranges := make([]Range, parts)
	var total int64
	for _, l := range lengths {
		total += int64(l)
	}
	lo := 0
	var used int64
	for i := 0; i < parts-1; i++ {
		// Aim each range at an equal share of the residues still
		// unassigned; take one more sequence when it lands closer to the
		// target than stopping short would.
		target := (total - used) / int64(parts-i)
		hi := lo
		var acc int64
		for hi < n {
			l := int64(lengths[hi])
			if acc > 0 && acc+l > target {
				if acc+l-target < target-acc {
					acc += l
					hi++
				}
				break
			}
			acc += l
			hi++
			if acc >= target {
				break
			}
		}
		ranges[i] = Range{Lo: lo, Hi: hi}
		lo = hi
		used += acc
	}
	ranges[parts-1] = Range{Lo: lo, Hi: n}
	return ranges
}
