package seqdb

import (
	"os"
	"path/filepath"
	"testing"

	"swdual/internal/alphabet"
	"swdual/internal/fasta"
	"swdual/internal/synth"
)

// benchCorpus writes one synthetic corpus in both formats and returns
// the two paths. ~2000 sequences × ~mean 250 residues ≈ 0.5 MB of
// residues — big enough that parse cost dominates fixture noise.
func benchCorpus(b *testing.B) (swdbPath, fastaPath string) {
	b.Helper()
	set := synth.RandomSet(alphabet.Protein, 2000, 50, 450, 77)
	dir := b.TempDir()
	swdbPath = filepath.Join(dir, "bench.swdb")
	if err := Create(swdbPath, set); err != nil {
		b.Fatal(err)
	}
	fastaPath = filepath.Join(dir, "bench.fasta")
	f, err := os.Create(fastaPath)
	if err != nil {
		b.Fatal(err)
	}
	if err := fasta.WriteSet(f, set); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	return swdbPath, fastaPath
}

// BenchmarkDBOpen compares the three ways a searcher can come to hold
// this corpus: mmap (header + index validation only, residues stay on
// disk until paged in), mmap with the full set materialized (what a
// Searcher construction pays), and the FASTA parse every non-.swdb
// start pays. The ISSUE 9 acceptance bar is swdb-mmap ≥ 10× faster
// than fasta-parse.
func BenchmarkDBOpen(b *testing.B) {
	swdbPath, fastaPath := benchCorpus(b)
	b.Run("swdb-mmap", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m, err := Open(swdbPath)
			if err != nil {
				b.Fatal(err)
			}
			m.Close()
		}
	})
	b.Run("swdb-mmap+set", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m, err := Open(swdbPath)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := m.Set(); err != nil {
				b.Fatal(err)
			}
			m.Close()
		}
	})
	b.Run("fasta-parse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := fasta.ReadFile(fastaPath, alphabet.Protein, true); err != nil {
				b.Fatal(err)
			}
		}
	})
}
