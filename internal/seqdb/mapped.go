package seqdb

import (
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"sync"

	"swdual/internal/alphabet"
	"swdual/internal/seq"
)

// ErrMappedClosed is returned by every Mapped method after Close.
var ErrMappedClosed = errors.New("seqdb: mapped database is closed")

// Mapped is a read-only memory-mapped database file. Open validates the
// header and the whole index against the real file size (O(index), no
// data scan), and Set exposes the database as a seq.Set whose Residues
// are subslices of the mapping — zero residue copies, data off the Go
// heap on unix, and one physical copy per host no matter how many
// shard or replica processes map the same file.
//
// The data CRC recorded in the header is trusted on Open (it equals
// seq.Set.Checksum over the same residues, so the engine's prepared
// checksum costs no data scan either); call Verify for the eager mode
// that rescans every residue byte against it.
//
// Lifecycle: Close unmaps the file and is idempotent and
// concurrency-safe, but residue slices handed out by Set die with the
// mapping — stop every searcher over the set before Close (the public
// swdual.Searcher sequences exactly that). Method calls after Close
// fail with ErrMappedClosed instead of faulting.
type Mapped struct {
	data    []byte
	hdr     header
	entries []indexEntry

	// mu is held shared by readers for the duration of one method call
	// and exclusively by Close, so no method can race the munmap. Names
	// decode lazily, once, on the first Set call; residues are never
	// decoded at all.
	mu      sync.RWMutex
	closed  bool
	setOnce sync.Once
	set     *seq.Set
}

// Open maps the database file at path read-only and validates its
// header and index without touching the data region. The returned
// Mapped must be Closed to release the mapping.
func Open(path string) (*Mapped, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() // the mapping survives the descriptor
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if fi.Size() < headerSize {
		return nil, fmt.Errorf("seqdb: %s: file of %d bytes is shorter than the %d-byte header", path, fi.Size(), headerSize)
	}
	data, err := mapFile(f, fi.Size())
	if err != nil {
		return nil, err
	}
	hdr, entries, err := parseDB(data)
	if err != nil {
		unmapFile(data)
		return nil, fmt.Errorf("seqdb: %s: %w", path, err)
	}
	return &Mapped{data: data, hdr: hdr, entries: entries}, nil
}

// parseDB decodes and fully validates a database image: the header
// against the image size, then every index entry against the regions
// the header established, then the per-entry residue total against the
// header's declared total. The entry slice is the only count-driven
// allocation, and it happens only after parseHeader proved the count
// fits the index bytes actually present. Open trusts nothing else.
func parseDB(data []byte) (header, []indexEntry, error) {
	if len(data) < headerSize {
		return header{}, nil, fmt.Errorf("seqdb: image of %d bytes is shorter than the %d-byte header", len(data), headerSize)
	}
	h, err := parseHeader(data[:headerSize], int64(len(data)))
	if err != nil {
		return header{}, nil, err
	}
	entries := make([]indexEntry, h.count)
	var total uint64
	for i := range entries {
		off := h.indexOffset + uint64(i)*indexStride
		e := decodeEntry(data[off : off+indexStride])
		if err := h.checkEntry(i, e); err != nil {
			return header{}, nil, err
		}
		entries[i] = e
		total += uint64(e.dataLen)
	}
	if total != h.totalResidues {
		return header{}, nil, fmt.Errorf("seqdb: index residue total %d differs from header total %d", total, h.totalResidues)
	}
	return h, entries, nil
}

// Set returns the database as a sequence set backed by the mapping:
// Residues alias the mapped file (capacity-clamped so appends cannot
// spill into a neighbor), and the header CRC is installed as the set's
// precomputed checksum so preparing an engine over it scans no data.
// Names decode on the first call (Open stays O(index)); the same set is
// returned to every caller, and it must be treated as read-only — on
// unix the MMU enforces that for the residues.
func (m *Mapped) Set() (*seq.Set, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.closed {
		return nil, ErrMappedClosed
	}
	m.setOnce.Do(func() {
		set := seq.NewSet(m.hdr.alpha)
		set.Seqs = make([]seq.Sequence, len(m.entries))
		for i, e := range m.entries {
			dataEnd := e.dataOff + uint64(e.dataLen)
			id, desc := splitName(m.data[e.nameOff : e.nameOff+uint64(e.nameLen)])
			set.Seqs[i] = seq.Sequence{
				ID:       id,
				Desc:     desc,
				Residues: m.data[e.dataOff:dataEnd:dataEnd],
			}
		}
		set.SetPrecomputedChecksum(m.hdr.dataCRC)
		m.set = set
	})
	return m.set, nil
}

// Verify rescans the mapped data region and checks it against the
// header CRC — the eager integrity mode Open deliberately skips.
func (m *Mapped) Verify() error {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.closed {
		return ErrMappedClosed
	}
	crc := crc32.NewIEEE()
	for _, e := range m.entries {
		crc.Write(m.data[e.dataOff : e.dataOff+uint64(e.dataLen)])
	}
	if crc.Sum32() != m.hdr.dataCRC {
		return fmt.Errorf("seqdb: data CRC mismatch: stored %08x computed %08x", m.hdr.dataCRC, crc.Sum32())
	}
	return nil
}

// Close releases the mapping. It is idempotent and safe to call
// concurrently; every later method call fails with ErrMappedClosed.
// Callers must stop searching the Set first — its residue slices point
// into the mapping being released.
func (m *Mapped) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil
	}
	m.closed = true
	data := m.data
	m.data = nil
	return unmapFile(data)
}

// Count returns the number of sequences.
func (m *Mapped) Count() int { return m.hdr.count }

// TotalResidues returns the residue total recorded in the header
// (proven equal to the index's per-entry sum at Open).
func (m *Mapped) TotalResidues() uint64 { return m.hdr.totalResidues }

// Alphabet returns the database alphabet.
func (m *Mapped) Alphabet() *alphabet.Alphabet { return m.hdr.alpha }

// Checksum returns the header's data CRC-32 — identical to
// seq.Set.Checksum over the same residues.
func (m *Mapped) Checksum() uint32 { return m.hdr.dataCRC }

// MappedBytes returns the size of the mapping in bytes (0 after Close).
func (m *Mapped) MappedBytes() int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return int64(len(m.data))
}
