package engine

import (
	"context"
	"testing"

	"swdual/internal/alphabet"
	"swdual/internal/master"
	"swdual/internal/seq"
	"swdual/internal/sw"
	"swdual/internal/synth"
)

// BenchmarkLoneQuery times one 240-residue query, a stretch of a corpus
// subject, on an idle cpu=2 Searcher over the benchmark's corpus shape
// (300 log-normal subjects, 106 885 residues): the case a wave on a
// wholly idle pool splits into one task per chunk. cold
// builds the Searcher, answers the query — building the lane plans — and
// closes it; warm answers it on a Searcher that already has. MB/s is
// Mcell/s. cold also reports one_worker_share, the share of its
// searches whose two chunk tasks both ran on the same worker (the
// other's wake-up came after the first chunk ended; see
// master.BenchmarkSecondTaskStart).
func BenchmarkLoneQuery(b *testing.B) {
	db := synth.DBSpec{Name: "bench", Count: 300, MeanLen: 360, Sigma: 0.6, MinLen: 20, MaxLen: 4000, Seed: 1}.Generate()
	var src []byte
	for i := range db.Seqs {
		if db.Seqs[i].Len() >= 400 {
			src = db.Seqs[i].Residues[100:340]
			break
		}
	}
	q := seq.NewSet(alphabet.Protein)
	q.AddEncoded("q240", "", src)
	cfg := Config{Pool: master.PoolSpec{CPU: 2}}
	search := func(b *testing.B, s *Searcher) {
		if _, err := s.Search(context.Background(), q, SearchOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("cold", func(b *testing.B) {
		b.SetBytes(sw.SetCells(len(src), db))
		oneWorker := 0
		for i := 0; i < b.N; i++ {
			s, err := New(db, cfg)
			if err != nil {
				b.Fatal(err)
			}
			search(b, s)
			for _, w := range s.Stats().Workers {
				if w.Tasks == 2 {
					oneWorker++
				}
			}
			s.Close()
		}
		b.ReportMetric(float64(oneWorker)/float64(b.N), "one_worker_share")
	})
	b.Run("warm", func(b *testing.B) {
		s, err := New(db, cfg)
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		search(b, s)
		b.SetBytes(sw.SetCells(len(src), db))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			search(b, s)
		}
	})
}
