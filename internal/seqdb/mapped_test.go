package seqdb

import (
	"os"
	"sync"
	"testing"

	"swdual/internal/alphabet"
	"swdual/internal/enginetest"
	"swdual/internal/synth"
)

// TestMappedMatchesFile is the format-level equivalence proof: the
// zero-copy mapped view must expose byte-identical residues, names and
// metadata to the in-memory set the file was written from, and its
// trusted header checksum must equal the scanned one.
func TestMappedMatchesFile(t *testing.T) {
	set := synth.RandomSet(alphabet.Protein, 60, 0, 250, 7)
	set.Seqs[5].Desc = "a description, with punctuation"
	m, mapped := openSet(t, tempDB(t, set))

	if m.Count() != set.Len() || int64(m.TotalResidues()) != set.TotalResidues() {
		t.Fatalf("metadata mismatch: mapped (%d,%d) vs written (%d,%d)",
			m.Count(), m.TotalResidues(), set.Len(), set.TotalResidues())
	}
	if m.Alphabet() != set.Alpha || m.Checksum() != set.Checksum() {
		t.Fatal("alphabet or checksum mismatch between the file and the written set")
	}
	if diff := sameSet(mapped, set); diff != "" {
		t.Fatal(diff)
	}
	if mapped.Checksum() != set.Checksum() {
		t.Fatalf("checksum mismatch: mapped (trusted) %08x vs heap (scanned) %08x",
			mapped.Checksum(), set.Checksum())
	}
}

// TestMappedZeroCopy pins the whole point of the tentpole: every
// residue slice of the mapped set aliases the mapping instead of a heap
// copy, and Set returns the same set (and the same backing) every call.
func TestMappedZeroCopy(t *testing.T) {
	set := synth.RandomSet(alphabet.Protein, 10, 1, 50, 8)
	path := tempDB(t, set)
	m, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	s1, err := m.Set()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := m.Set()
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Fatal("Set must return the one shared set")
	}
	for i, e := range m.entries {
		r := s1.Seqs[i].Residues
		if len(r) == 0 {
			continue
		}
		if &r[0] != &m.data[e.dataOff] {
			t.Fatalf("sequence %d residues are a copy, not a subslice of the mapping", i)
		}
		if cap(r) != len(r) {
			t.Fatalf("sequence %d residue capacity %d exceeds length %d: an append could spill into the neighbor", i, cap(r), len(r))
		}
	}
	if got := m.MappedBytes(); got <= 0 {
		t.Fatalf("MappedBytes = %d, want the file size", got)
	}
}

// TestMappedVerify covers the verification trade: a clean file passes
// Verify, and a corrupted residue byte fails it while Open (which trusts
// the header CRC) still succeeds.
func TestMappedVerify(t *testing.T) {
	set := synth.RandomSet(alphabet.Protein, 25, 1, 90, 9)
	path := tempDB(t, set)
	m, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
	m.Close()

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[headerSize+3] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	lazy, err := Open(path)
	if err != nil {
		t.Fatalf("lazy open must trust the header CRC: %v", err)
	}
	if err := lazy.Verify(); err == nil {
		t.Fatal("Verify must catch the corrupted residue")
	}
	lazy.Close()
}

// TestMappedCloseLifecycle: Close is idempotent under concurrency, and
// every method after Close reports ErrMappedClosed instead of touching
// the dead mapping.
func TestMappedCloseLifecycle(t *testing.T) {
	set := synth.RandomSet(alphabet.Protein, 12, 1, 40, 10)
	path := tempDB(t, set)
	m, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Set(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = m.Close()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent Close %d: %v", i, err)
		}
	}
	if _, err := m.Set(); err != ErrMappedClosed {
		t.Fatalf("Set after Close: %v, want ErrMappedClosed", err)
	}
	if err := m.Verify(); err != ErrMappedClosed {
		t.Fatalf("Verify after Close: %v, want ErrMappedClosed", err)
	}
	if got := m.MappedBytes(); got != 0 {
		t.Fatalf("MappedBytes after Close = %d, want 0", got)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestMappedOpenLeaksNothing is the goroutine/mapping-leak baseline:
// open/set/verify/close cycles must leave the goroutine count where it
// started and release every mapping (MappedBytes drops to 0, so a leak
// cannot hide behind a forgotten slice header).
func TestMappedOpenLeaksNothing(t *testing.T) {
	set := synth.RandomSet(alphabet.Protein, 30, 1, 120, 11)
	path := tempDB(t, set)
	check := enginetest.LeakCheck(t)
	for i := 0; i < 50; i++ {
		m, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Set(); err != nil {
			t.Fatal(err)
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		if m.MappedBytes() != 0 {
			t.Fatal("mapping survived Close")
		}
	}
	check()
}

// TestMappedEmptyDB: the degenerate file (header only, zero sequences)
// maps and round-trips.
func TestMappedEmptyDB(t *testing.T) {
	path := tempDB(t, synth.RandomSet(alphabet.Protein, 0, 0, 0, 12))
	m, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	s, err := m.Set()
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 || m.Count() != 0 {
		t.Fatalf("empty db read back %d sequences", s.Len())
	}
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestMappedRejectsHostileHeaders spot-checks the validation classes the
// fuzzer explores at random: truncated files, counts larger than the
// index region, an index offset past the end, entries pointing outside
// the data region, and residue totals that do not add up.
func TestMappedRejectsHostileHeaders(t *testing.T) {
	set := synth.RandomSet(alphabet.Protein, 5, 4, 20, 13)
	path := tempDB(t, set)
	valid, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(name string, f func(b []byte) []byte) {
		b := f(append([]byte(nil), valid...))
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		if m, err := Open(path); err == nil {
			m.Close()
			t.Fatalf("%s: hostile file accepted", name)
		}
	}
	mutate("truncated header", func(b []byte) []byte { return b[:headerSize-1] })
	mutate("count beyond index", func(b []byte) []byte {
		b[12] = 0xff // count low byte: 255 sequences, index room for 5
		return b
	})
	mutate("index offset past EOF", func(b []byte) []byte {
		b[28], b[29] = 0xff, 0xff
		return b
	})
	mutate("entry outside data region", func(b []byte) []byte {
		// First index entry's dataOff points past the index.
		io := binaryUint64(b[28:])
		b[io], b[io+1] = 0xff, 0xff
		return b
	})
	mutate("residue total mismatch", func(b []byte) []byte {
		b[20]++ // totalResidues no longer matches the entry sum
		return b
	})
}

func binaryUint64(b []byte) uint64 {
	var v uint64
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v
}
