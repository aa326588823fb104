// Package synth generates deterministic synthetic protein databases and
// query sets that stand in for the paper's five genomic databases
// (Table III) and its three query sets.
//
// The real databases (UniProt, Ensembl Dog/Rat, RefSeq Human/Mouse,
// 2012-2014 snapshots) are no longer retrievable at the versions used in
// the paper. The experiments, however, depend only on the number of
// sequences and the length distribution — these set the dynamic-programming
// cell volume of every task — so seeded generators with the published
// sequence counts and mean lengths (back-derived from Table IV via
// cells = GCUPS x time) preserve the workload exactly. See DESIGN.md §2.
package synth

import (
	"fmt"
	"math"
	"math/rand"

	"swdual/internal/alphabet"
	"swdual/internal/seq"
)

// Robinson-Robinson amino-acid background frequencies (per mille), in the
// ARNDCQEGHILKMFPSTWYV order of alphabet.Protein's core.
var proteinFreqs = [20]float64{
	78.05, 51.29, 44.87, 53.64, 19.25, 42.64, 62.95, 73.77, 21.99, 51.42,
	90.19, 57.44, 22.43, 38.56, 52.03, 71.29, 58.41, 13.30, 32.16, 64.41,
}

// residueSampler draws residue codes from a cumulative frequency table via
// a 4096-entry lookup grid (constant-time sampling).
type residueSampler struct {
	grid [4096]byte
}

func newResidueSampler(a *alphabet.Alphabet) *residueSampler {
	s := &residueSampler{}
	n := a.Core()
	cum := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		f := 1.0
		if a.Name() == "protein" && i < len(proteinFreqs) {
			f = proteinFreqs[i]
		}
		total += f
		cum[i] = total
	}
	j := 0
	for i := range s.grid {
		x := (float64(i) + 0.5) / float64(len(s.grid)) * total
		for j < n-1 && cum[j] < x {
			j++
		}
		s.grid[i] = byte(j)
	}
	return s
}

// residues draws n residue codes.
func (s *residueSampler) residues(rng *rand.Rand, n int) []byte {
	r := make([]byte, n)
	for j := range r {
		r[j] = s.grid[rng.Intn(len(s.grid))]
	}
	return r
}

// DBSpec describes a synthetic database preset.
type DBSpec struct {
	Name    string
	Count   int     // number of sequences at scale 1
	MeanLen float64 // target mean sequence length
	Sigma   float64 // lognormal shape parameter
	MinLen  int
	MaxLen  int
	Seed    int64
}

// The five database presets of Table III. Mean lengths are derived from
// Table IV: total DP cells = GCUPS x time, divided by the standard query
// set's total length (~102,000 residues), divided by the sequence count.
var (
	EnsemblDog = DBSpec{Name: "Ensembl Dog Proteins", Count: 25160, MeanLen: 586, Sigma: 0.55, MinLen: 20, MaxLen: 12000, Seed: 101}
	EnsemblRat = DBSpec{Name: "Ensembl Rat Proteins", Count: 32971, MeanLen: 526, Sigma: 0.55, MinLen: 20, MaxLen: 12000, Seed: 102}
	RefSeqHum  = DBSpec{Name: "RefSeq Human Proteins", Count: 34705, MeanLen: 564, Sigma: 0.55, MinLen: 20, MaxLen: 12000, Seed: 103}
	RefSeqMou  = DBSpec{Name: "RefSeq Mouse Proteins", Count: 29437, MeanLen: 542, Sigma: 0.55, MinLen: 20, MaxLen: 12000, Seed: 104}
	UniProt    = DBSpec{Name: "UniProt", Count: 537505, MeanLen: 360, Sigma: 0.60, MinLen: 4, MaxLen: 35213, Seed: 105}
)

// Databases lists the presets in the paper's Table III/IV order.
var Databases = []DBSpec{EnsemblDog, EnsemblRat, RefSeqHum, RefSeqMou, UniProt}

// DatabaseByName returns the preset with the given name.
func DatabaseByName(name string) (DBSpec, error) {
	for _, d := range Databases {
		if d.Name == name {
			return d, nil
		}
	}
	return DBSpec{}, fmt.Errorf("synth: unknown database preset %q", name)
}

// Scaled returns a copy with the sequence count divided by scale (>=1).
// Length statistics are unchanged, so per-sequence behaviour is identical
// and aggregate cell volume shrinks linearly.
func (d DBSpec) Scaled(scale int) DBSpec {
	if scale <= 1 {
		return d
	}
	d.Count = (d.Count + scale - 1) / scale
	d.Name = fmt.Sprintf("%s (1/%d)", d.Name, scale)
	return d
}

// sampleLen draws a lognormal length with the spec's target mean, clipped
// to [MinLen, MaxLen].
func (d DBSpec) sampleLen(rng *rand.Rand) int {
	mu := math.Log(d.MeanLen) - d.Sigma*d.Sigma/2
	l := int(math.Exp(mu + d.Sigma*rng.NormFloat64()))
	if l < d.MinLen {
		l = d.MinLen
	}
	if l > d.MaxLen {
		l = d.MaxLen
	}
	return l
}

// GenerateLengths draws only the sequence lengths of the database. The
// length stream is independent of residue generation, so paper-scale
// timing models can size the workload without materializing residues;
// Generate produces sequences with exactly these lengths.
func (d DBSpec) GenerateLengths() []int {
	rng := rand.New(rand.NewSource(d.Seed))
	out := make([]int, d.Count)
	for i := range out {
		out[i] = d.sampleLen(rng)
	}
	return out
}

// Generate materializes the database as an encoded sequence set.
func (d DBSpec) Generate() *seq.Set {
	lengths := d.GenerateLengths()
	rng := rand.New(rand.NewSource(d.Seed ^ 0x5DEECE66D))
	sampler := newResidueSampler(alphabet.Protein)
	set := seq.NewSet(alphabet.Protein)
	set.Seqs = make([]seq.Sequence, 0, d.Count)
	for i, l := range lengths {
		set.AddEncoded(fmt.Sprintf("%s|%06d", shortName(d.Name), i), "", sampler.residues(rng, l))
	}
	return set
}

func shortName(name string) string {
	out := make([]byte, 0, 8)
	for i := 0; i < len(name) && len(out) < 8; i++ {
		c := name[i]
		if c >= 'A' && c <= 'Z' || c >= 'a' && c <= 'z' || c >= '0' && c <= '9' {
			out = append(out, c)
		}
	}
	return string(out)
}

// QuerySpec describes a synthetic query set by its exact sequence lengths.
type QuerySpec struct {
	Name    string
	Lengths []int
	Seed    int64
}

// StandardQueries reproduces the paper's primary query set: 40 sequences
// with lengths from 100 to 5,000 amino acids. Lengths are linearly spaced,
// which matches the total query volume (~102,000 residues) implied by
// Table IV's GCUPS figures.
func StandardQueries() QuerySpec {
	return QuerySpec{Name: "standard-40", Lengths: linspace(100, 5000, 40), Seed: 201}
}

// HomogeneousQueries reproduces Table V's homogeneous set: 40 sequences
// with lengths between 4,500 and 5,000.
func HomogeneousQueries() QuerySpec {
	return QuerySpec{Name: "homogeneous-40", Lengths: linspace(4500, 5000, 40), Seed: 202}
}

// HeterogeneousQueries reproduces Table V's heterogeneous set: 40 sequences
// with lengths between 4 (the smallest UniProt sequence) and 35,213 (the
// largest).
func HeterogeneousQueries() QuerySpec {
	return QuerySpec{Name: "heterogeneous-40", Lengths: linspace(4, 35213, 40), Seed: 203}
}

// QueriesByName returns the query set of the given kind: "standard",
// "homogeneous" or "heterogeneous".
func QueriesByName(kind string) (QuerySpec, error) {
	switch kind {
	case "standard":
		return StandardQueries(), nil
	case "homogeneous":
		return HomogeneousQueries(), nil
	case "heterogeneous":
		return HeterogeneousQueries(), nil
	}
	return QuerySpec{}, fmt.Errorf("synth: unknown query set %q (valid sets: standard, homogeneous, heterogeneous)", kind)
}

// Scaled divides every query length by scale, with a floor of 4 residues.
func (q QuerySpec) Scaled(scale int) QuerySpec {
	if scale <= 1 {
		return q
	}
	out := QuerySpec{Name: fmt.Sprintf("%s (1/%d)", q.Name, scale), Seed: q.Seed}
	out.Lengths = make([]int, len(q.Lengths))
	for i, l := range q.Lengths {
		out.Lengths[i] = max(l/scale, 4)
	}
	return out
}

// Generate materializes the query set.
func (q QuerySpec) Generate() *seq.Set {
	rng := rand.New(rand.NewSource(q.Seed))
	sampler := newResidueSampler(alphabet.Protein)
	set := seq.NewSet(alphabet.Protein)
	for i, l := range q.Lengths {
		set.AddEncoded(fmt.Sprintf("query|%02d|len%d", i, l), "", sampler.residues(rng, l))
	}
	return set
}

// linspace returns n integer points spread linearly over [lo, hi].
func linspace(lo, hi, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = lo + (hi-lo)*i/max(n-1, 1)
	}
	return out
}

// RandomSet generates count random sequences of length within [minLen,
// maxLen] over the alphabet — a convenience for tests and fuzzing.
func RandomSet(a *alphabet.Alphabet, count, minLen, maxLen int, seed int64) *seq.Set {
	rng := rand.New(rand.NewSource(seed))
	sampler := newResidueSampler(a)
	set := seq.NewSet(a)
	for i := 0; i < count; i++ {
		l := minLen
		if maxLen > minLen {
			l += rng.Intn(maxLen - minLen + 1)
		}
		set.AddEncoded(fmt.Sprintf("rnd|%04d", i), "", sampler.residues(rng, l))
	}
	return set
}
