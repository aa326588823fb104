package synth

import (
	"math"
	"testing"

	"swdual/internal/alphabet"
)

func TestPresetsMatchTableIII(t *testing.T) {
	wantCounts := map[string]int{
		"Ensembl Dog Proteins":  25160,
		"Ensembl Rat Proteins":  32971,
		"RefSeq Human Proteins": 34705,
		"RefSeq Mouse Proteins": 29437,
		"UniProt":               537505,
	}
	if len(Databases) != 5 {
		t.Fatalf("%d presets, want 5", len(Databases))
	}
	for _, d := range Databases {
		if d.Count != wantCounts[d.Name] {
			t.Fatalf("%s count %d, want %d", d.Name, d.Count, wantCounts[d.Name])
		}
	}
}

func TestGenerateLengthsMatchGenerate(t *testing.T) {
	spec := EnsemblDog.Scaled(100)
	lengths := spec.GenerateLengths()
	set := spec.Generate()
	if len(lengths) != set.Len() {
		t.Fatalf("lengths %d vs set %d", len(lengths), set.Len())
	}
	for i, l := range lengths {
		if set.Seqs[i].Len() != l {
			t.Fatalf("sequence %d length %d, want %d", i, set.Seqs[i].Len(), l)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := UniProt.Scaled(5000).Generate()
	b := UniProt.Scaled(5000).Generate()
	if a.Len() != b.Len() {
		t.Fatal("nondeterministic count")
	}
	for i := range a.Seqs {
		if string(a.Seqs[i].Residues) != string(b.Seqs[i].Residues) {
			t.Fatalf("nondeterministic residues at %d", i)
		}
	}
}

func TestMeanLengthNearTarget(t *testing.T) {
	spec := UniProt.Scaled(50) // ~10k sequences: the mean should converge
	lengths := spec.GenerateLengths()
	total := 0
	for _, l := range lengths {
		total += l
		if l < spec.MinLen || l > spec.MaxLen {
			t.Fatalf("length %d outside [%d,%d]", l, spec.MinLen, spec.MaxLen)
		}
	}
	mean := float64(total) / float64(len(lengths))
	if math.Abs(mean-spec.MeanLen)/spec.MeanLen > 0.10 {
		t.Fatalf("mean length %.1f, want within 10%% of %.1f", mean, spec.MeanLen)
	}
}

func TestResiduesWithinCore(t *testing.T) {
	set := RandomSet(alphabet.Protein, 10, 1, 100, 7)
	for _, s := range set.Seqs {
		for _, r := range s.Residues {
			if int(r) >= alphabet.Protein.Core() {
				t.Fatalf("residue %d outside core", r)
			}
		}
	}
}

func TestQuerySets(t *testing.T) {
	std := StandardQueries()
	if len(std.Lengths) != 40 {
		t.Fatalf("standard set %d queries, want 40", len(std.Lengths))
	}
	if std.Lengths[0] != 100 || std.Lengths[39] != 5000 {
		t.Fatalf("standard range [%d,%d], want [100,5000]", std.Lengths[0], std.Lengths[39])
	}
	hom := HomogeneousQueries()
	if hom.Lengths[0] != 4500 || hom.Lengths[39] != 5000 {
		t.Fatalf("homogeneous range [%d,%d]", hom.Lengths[0], hom.Lengths[39])
	}
	het := HeterogeneousQueries()
	if het.Lengths[0] != 4 || het.Lengths[39] != 35213 {
		t.Fatalf("heterogeneous range [%d,%d]", het.Lengths[0], het.Lengths[39])
	}
	// Total volumes should match the paper-implied sums within 5%.
	if tl := totalLen(std); math.Abs(float64(tl)-100500) > 0.05*100500 {
		t.Fatalf("standard total %d, want ~100500", tl)
	}
	if tl := totalLen(het); math.Abs(float64(tl)-690000) > 0.05*690000 {
		t.Fatalf("heterogeneous total %d, want ~690000", tl)
	}
	if tl := totalLen(hom); math.Abs(float64(tl)-187000) > 0.05*187000 {
		t.Fatalf("homogeneous total %d, want ~187000", tl)
	}
}

func totalLen(q QuerySpec) int {
	t := 0
	for _, l := range q.Lengths {
		t += l
	}
	return t
}

func TestQueryGenerate(t *testing.T) {
	qs := StandardQueries().Scaled(10)
	set := qs.Generate()
	if set.Len() != 40 {
		t.Fatalf("%d queries", set.Len())
	}
	for i, l := range qs.Lengths {
		if set.Seqs[i].Len() != l {
			t.Fatalf("query %d length %d, want %d", i, set.Seqs[i].Len(), l)
		}
	}
}

func TestScaled(t *testing.T) {
	spec := UniProt.Scaled(1000)
	if spec.Count != 538 {
		t.Fatalf("scaled count %d, want 538 (ceil)", spec.Count)
	}
	if UniProt.Scaled(1).Count != UniProt.Count {
		t.Fatal("scale 1 must be identity")
	}
	qs := StandardQueries().Scaled(50)
	for _, l := range qs.Lengths {
		if l < 4 {
			t.Fatalf("scaled query length %d below floor", l)
		}
	}
}

func TestDatabaseByName(t *testing.T) {
	if _, err := DatabaseByName("UniProt"); err != nil {
		t.Fatal(err)
	}
	if _, err := DatabaseByName("nope"); err == nil {
		t.Fatal("expected error")
	}
}
