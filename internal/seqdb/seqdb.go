// Package seqdb implements the paper's binary sequence-database format
// (§IV). FASTA files are plain text and cannot be read at a specific
// sequence position; this format adds a header and a fixed-stride index so
// both master and workers can read any sequence directly and size memory
// allocations up front.
//
// File layout (all integers little-endian):
//
//	header   : magic "SWDB" | version u32 | alphabet u32 | count u64 |
//	           totalResidues u64 | indexOffset u64 | dataCRC32 u32
//	data     : encoded residues of every sequence, concatenated
//	names    : per sequence, id + 0x00 + description
//	index    : count entries of {dataOff u64, dataLen u32, nameOff u64, nameLen u32}
//
// One reader exists: Open memory-maps the file read-only and exposes it
// as a seq.Set whose Residues are subslices of the mapping — zero residue
// copies, data off the Go heap, one physical copy per host shared by
// every process mapping the same file (see mapped.go).
//
// Every header- and index-declared quantity is distrusted until proven
// to lie inside the actual file: a hostile file can neither drive
// out-of-range reads nor size an allocation by lying about counts.
package seqdb

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"swdual/internal/alphabet"
	"swdual/internal/seq"
)

const (
	magic       = "SWDB"
	version     = 1
	headerSize  = 4 + 4 + 4 + 8 + 8 + 8 + 4
	indexStride = 8 + 4 + 8 + 4
)

// Alphabet identifiers stored in the header.
const (
	alphaProtein = iota
	alphaDNA
	alphaRNA
)

func alphaID(a *alphabet.Alphabet) (uint32, error) {
	switch a.Name() {
	case "protein":
		return alphaProtein, nil
	case "dna":
		return alphaDNA, nil
	case "rna":
		return alphaRNA, nil
	}
	return 0, fmt.Errorf("seqdb: unsupported alphabet %q", a.Name())
}

func alphaByID(id uint32) (*alphabet.Alphabet, error) {
	switch id {
	case alphaProtein:
		return alphabet.Protein, nil
	case alphaDNA:
		return alphabet.DNA, nil
	case alphaRNA:
		return alphabet.RNA, nil
	}
	return nil, fmt.Errorf("seqdb: unknown alphabet id %d", id)
}

type indexEntry struct {
	dataOff uint64
	dataLen uint32
	nameOff uint64
	nameLen uint32
}

// header is the decoded and size-validated file header.
type header struct {
	alpha         *alphabet.Alphabet
	count         int
	totalResidues uint64
	indexOffset   uint64
	dataCRC       uint32
}

// parseHeader decodes the fixed header and validates every declared
// quantity against the actual file size before anything trusts it:
// the index must lie inside the file, the declared sequence count must
// fit in the index region that is really there, and the declared data
// volume cannot exceed the bytes between header and index. Nothing
// count-driven may be allocated before these checks pass.
func parseHeader(hdr []byte, size int64) (header, error) {
	if size < headerSize {
		return header{}, fmt.Errorf("seqdb: file of %d bytes is shorter than the %d-byte header", size, headerSize)
	}
	if string(hdr[0:4]) != magic {
		return header{}, fmt.Errorf("seqdb: bad magic %q", hdr[0:4])
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != version {
		return header{}, fmt.Errorf("seqdb: unsupported version %d", v)
	}
	alpha, err := alphaByID(binary.LittleEndian.Uint32(hdr[8:]))
	if err != nil {
		return header{}, err
	}
	count := binary.LittleEndian.Uint64(hdr[12:])
	total := binary.LittleEndian.Uint64(hdr[20:])
	indexOffset := binary.LittleEndian.Uint64(hdr[28:])
	if indexOffset < headerSize || indexOffset > uint64(size) {
		return header{}, fmt.Errorf("seqdb: index offset %d outside file of %d bytes", indexOffset, size)
	}
	// Overflow-safe: bound count by the index bytes actually present
	// instead of computing count*indexStride.
	if maxEntries := (uint64(size) - indexOffset) / indexStride; count > maxEntries {
		return header{}, fmt.Errorf("seqdb: header declares %d sequences but the file has index room for %d", count, maxEntries)
	}
	if total > indexOffset-headerSize {
		return header{}, fmt.Errorf("seqdb: header declares %d residues but only %d bytes lie between header and index", total, indexOffset-headerSize)
	}
	return header{
		alpha:         alpha,
		count:         int(count),
		totalResidues: total,
		indexOffset:   indexOffset,
		dataCRC:       binary.LittleEndian.Uint32(hdr[36:]),
	}, nil
}

// checkEntry validates one index entry against the regions the header
// established: residues and names both live in [headerSize,
// indexOffset). The arithmetic is overflow-safe because offsets are
// bounded before lengths are added to them.
func (h *header) checkEntry(i int, e indexEntry) error {
	if e.dataOff < headerSize || e.dataOff > h.indexOffset || uint64(e.dataLen) > h.indexOffset-e.dataOff {
		return fmt.Errorf("seqdb: index entry %d: residues [%d,+%d) outside data region [%d,%d)",
			i, e.dataOff, e.dataLen, headerSize, h.indexOffset)
	}
	if e.nameOff < headerSize || e.nameOff > h.indexOffset || uint64(e.nameLen) > h.indexOffset-e.nameOff {
		return fmt.Errorf("seqdb: index entry %d: name [%d,+%d) outside data region [%d,%d)",
			i, e.nameOff, e.nameLen, headerSize, h.indexOffset)
	}
	return nil
}

func decodeEntry(buf []byte) indexEntry {
	return indexEntry{
		dataOff: binary.LittleEndian.Uint64(buf[0:]),
		dataLen: binary.LittleEndian.Uint32(buf[8:]),
		nameOff: binary.LittleEndian.Uint64(buf[12:]),
		nameLen: binary.LittleEndian.Uint32(buf[20:]),
	}
}

// Write serializes a set into the binary format on ws.
func Write(ws io.WriteSeeker, set *seq.Set) error {
	aid, err := alphaID(set.Alpha)
	if err != nil {
		return err
	}
	// Reserve the header; it is rewritten once offsets are known.
	if _, err := ws.Seek(headerSize, io.SeekStart); err != nil {
		return err
	}
	bw := bufio.NewWriterSize(ws, 1<<20)
	crc := crc32.NewIEEE()
	entries := make([]indexEntry, len(set.Seqs))
	off := uint64(headerSize)
	var total uint64
	for i := range set.Seqs {
		r := set.Seqs[i].Residues
		entries[i].dataOff = off
		entries[i].dataLen = uint32(len(r))
		if _, err := bw.Write(r); err != nil {
			return err
		}
		crc.Write(r)
		off += uint64(len(r))
		total += uint64(len(r))
	}
	for i := range set.Seqs {
		name := nameBlob(&set.Seqs[i])
		entries[i].nameOff = off
		entries[i].nameLen = uint32(len(name))
		if _, err := bw.Write(name); err != nil {
			return err
		}
		off += uint64(len(name))
	}
	indexOffset := off
	var buf [indexStride]byte
	for _, e := range entries {
		binary.LittleEndian.PutUint64(buf[0:], e.dataOff)
		binary.LittleEndian.PutUint32(buf[8:], e.dataLen)
		binary.LittleEndian.PutUint64(buf[12:], e.nameOff)
		binary.LittleEndian.PutUint32(buf[20:], e.nameLen)
		if _, err := bw.Write(buf[:]); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	// Rewrite the header with final values.
	if _, err := ws.Seek(0, io.SeekStart); err != nil {
		return err
	}
	var hdr [headerSize]byte
	copy(hdr[0:], magic)
	binary.LittleEndian.PutUint32(hdr[4:], version)
	binary.LittleEndian.PutUint32(hdr[8:], aid)
	binary.LittleEndian.PutUint64(hdr[12:], uint64(len(set.Seqs)))
	binary.LittleEndian.PutUint64(hdr[20:], total)
	binary.LittleEndian.PutUint64(hdr[28:], indexOffset)
	binary.LittleEndian.PutUint32(hdr[36:], crc.Sum32())
	_, err = ws.Write(hdr[:])
	return err
}

func nameBlob(s *seq.Sequence) []byte {
	b := make([]byte, 0, len(s.ID)+1+len(s.Desc))
	b = append(b, s.ID...)
	b = append(b, 0)
	b = append(b, s.Desc...)
	return b
}

// Create writes the set to a new file at path.
func Create(path string, set *seq.Set) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, set); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func splitName(b []byte) (id, desc string) {
	if i := bytes.IndexByte(b, 0); i >= 0 {
		return string(b[:i]), string(b[i+1:])
	}
	return string(b), ""
}
