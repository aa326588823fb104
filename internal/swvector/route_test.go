package swvector_test

import (
	"fmt"
	"slices"
	"testing"

	"swdual/internal/alphabet"
	"swdual/internal/seq"
	"swdual/internal/shard"
	"swdual/internal/sw"
	"swdual/internal/swvector"
	"swdual/internal/synth"
)

// corpusRanges is the benchmark corpus split as its two cluster shard
// servers hold it: shard.SplitRanges over its lengths, residues balanced.
func corpusRanges() (*seq.Set, []shard.Range) {
	db := swvector.BenchCorpus()
	lengths := make([]int, db.Len())
	for i := range db.Seqs {
		lengths[i] = db.Seqs[i].Len()
	}
	return db, shard.SplitRanges(lengths, 2)
}

// TestClusterRangePlans pins the 32-lane plans of the two ranges: the
// first plans 1 728 columns either way; the second holds the corpus'
// 2 217-residue subject, its 50th, past its residues over 32 lanes
// (1 674), so without the route that subject's lane alone runs 2 220
// columns at 75.4 % occupancy, and with it the pair kernel takes it and
// the rest pack into 1 652 columns.
func TestClusterRangePlans(t *testing.T) {
	db, ranges := corpusRanges()
	if !slices.Equal(ranges, []shard.Range{{Lo: 0, Hi: 152}, {Lo: 152, Hi: 300}}) {
		t.Fatalf("the corpus splits into %v", ranges)
	}
	for _, tc := range []struct {
		r         shard.Range
		route     bool
		cols      int
		routed    []int
		residues  int64
		occupancy string
	}{
		{ranges[0], false, 1728, nil, 53332, "96.4 %"},
		{ranges[0], true, 1728, nil, 53332, "96.4 %"},
		{ranges[1], false, 2220, nil, 53553, "75.4 %"},
		{ranges[1], true, 1652, []int{50}, 53553, "97.1 %"},
	} {
		s := db.Slice(tc.r.Lo, tc.r.Hi)
		cols, routed := swvector.PlanAVX2(s, tc.route)
		planned := s.TotalResidues()
		for _, i := range routed {
			planned -= int64(s.Seqs[i].Len())
		}
		occupancy := fmt.Sprintf("%.1f %%", 100*float64(planned)/float64(32*cols))
		if cols != tc.cols || !slices.Equal(routed, tc.routed) || s.TotalResidues() != tc.residues || occupancy != tc.occupancy {
			t.Errorf("%v route %v: %d residues plan %d columns at %s, routed %v; want %d, %d at %s, %v",
				tc.r, tc.route, s.TotalResidues(), cols, occupancy, routed, tc.residues, tc.cols, tc.occupancy, tc.routed)
		}
	}
	if n := db.Seqs[ranges[1].Lo+50].Len(); n != 2217 {
		t.Fatalf("the routed subject has %d residues", n)
	}
}

// BenchmarkInterSeqRoute times whole tasks, one thread, route off and
// on, on the sets the route was built for: the two ranges of the cluster
// split, and the whole corpus plus one titin-length (35 000-residue)
// subject. MB/s reads as Mcell/s.
func BenchmarkInterSeqRoute(b *testing.B) {
	p := sw.DefaultParams()
	db, ranges := corpusRanges()
	withTitin := swvector.BenchCorpus()
	withTitin.AddEncoded("titin", "", synth.RandomSet(alphabet.Protein, 1, 35000, 35000, 131).Seqs[0].Residues)
	sets := []struct {
		name string
		db   *seq.Set
	}{
		{"range0", db.Slice(ranges[0].Lo, ranges[0].Hi)},
		{"range1", db.Slice(ranges[1].Lo, ranges[1].Hi)},
		{"titin", withTitin},
	}
	for _, n := range []int{32, 270} {
		q := synth.RandomSet(alphabet.Protein, 1, n, n, int64(137+n)).Seqs[0].Residues
		for _, set := range sets {
			for _, route := range []bool{false, true} {
				name := "off"
				if route {
					name = "on"
				}
				e := swvector.NewInterSeqRouting(p, route)
				b.Run(fmt.Sprintf("%s/q%d/%s", set.name, n, name), func(b *testing.B) {
					b.SetBytes(int64(n) * set.db.TotalResidues())
					for b.Loop() {
						e.Scores(q, set.db)
					}
				})
			}
		}
	}
}
