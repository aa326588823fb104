package engine

import (
	"context"
	"path/filepath"
	"sync"
	"testing"

	"swdual/internal/alphabet"
	"swdual/internal/master"
	"swdual/internal/seq"
	"swdual/internal/seqdb"
	"swdual/internal/synth"
)

// mappedDB writes a synthetic corpus as .swdb and memory-maps it back,
// returning the mapping and the in-memory set it was written from.
func mappedDB(t *testing.T, n int, seed int64) (*seqdb.Mapped, *seq.Set) {
	t.Helper()
	set := synth.RandomSet(alphabet.Protein, n, 10, 200, seed)
	path := filepath.Join(t.TempDir(), "db.swdb")
	if err := seqdb.Create(path, set); err != nil {
		t.Fatal(err)
	}
	m, err := seqdb.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m, set
}

// TestMappedSetSearch is the engine half of the zero-copy contract: an
// engine over a memory-mapped set must adopt the set without copying
// it, trust the header checksum instead of rescanning residues, and
// produce hits byte-identical to an engine over the heap set the file
// was written from.
func TestMappedSetSearch(t *testing.T) {
	m, heapSet := mappedDB(t, 50, 61)
	mset, err := m.Set()
	if err != nil {
		t.Fatal(err)
	}

	me, err := New(mset, Config{Pool: master.PoolSpec{CPU: 2, GPU: 1}, TopK: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer me.Close()
	he, err := New(heapSet, Config{Pool: master.PoolSpec{CPU: 2, GPU: 1}, TopK: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer he.Close()

	// No copy: the engine holds the very set whose residues alias the
	// mapping, and its prepared checksum is the header CRC Open trusted.
	if me.DB() != mset {
		t.Fatal("engine copied the mapped set")
	}
	if me.Checksum() != m.Checksum() {
		t.Fatalf("engine checksum %08x, want the header CRC %08x", me.Checksum(), m.Checksum())
	}
	if me.Checksum() != he.Checksum() {
		t.Fatalf("mapped checksum %08x != heap checksum %08x over the same file", me.Checksum(), he.Checksum())
	}

	queries := synth.RandomSet(alphabet.Protein, 8, 20, 120, 62)
	mrep, err := me.Search(context.Background(), queries, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	hrep, err := he.Search(context.Background(), queries, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sameHits(t, "mapped vs heap", mrep, hrep)
}

// TestMappedCloseOrdering exercises the lifecycle contract: searches
// run to completion over the mapping, the engine closes first (workers
// stop touching mapped residues), the mapping closes second, and every
// later use of either fails cleanly instead of faulting.
func TestMappedCloseOrdering(t *testing.T) {
	m, _ := mappedDB(t, 40, 63)
	mset, err := m.Set()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(mset, Config{Pool: master.PoolSpec{CPU: 2, GPU: 1}, TopK: 3})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		seed := int64(70 + i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			q := synth.RandomSet(alphabet.Protein, 2, 20, 80, seed)
			if _, err := eng.Search(context.Background(), q, SearchOptions{}); err != nil {
				t.Errorf("in-flight search: %v", err)
			}
		}()
	}
	wg.Wait()

	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Set(); err != seqdb.ErrMappedClosed {
		t.Fatalf("Set after Close: %v, want ErrMappedClosed", err)
	}
	q := synth.RandomSet(alphabet.Protein, 1, 20, 40, 99)
	if _, err := eng.Search(context.Background(), q, SearchOptions{}); err == nil {
		t.Fatal("search after engine Close succeeded")
	}
}
