package enginetest

import (
	"math/rand"
	"testing"

	"swdual/internal/alphabet"
	"swdual/internal/scoring"
	"swdual/internal/seq"
	"swdual/internal/sw"
	"swdual/internal/swpar"
	"swdual/internal/swvector"
	"swdual/internal/synth"
)

func engines(p sw.Params) []sw.Engine {
	return []sw.Engine{
		sw.NewScalar(p),
		swvector.NewStriped(p),
		swvector.NewInterSeq(p),
		swpar.NewEngine(p, swpar.Config{Workers: 3, RowBand: 8}),
	}
}

func corpus(seed int64, count, maxLen int) *seq.Set {
	return synth.RandomSet(alphabet.Protein, count, 0, maxLen, seed)
}

func crossCheck(t *testing.T, p sw.Params, query []byte, db *seq.Set) {
	t.Helper()
	var ref []int
	var refName string
	for _, e := range engines(p) {
		got := e.Scores(query, db)
		if ref == nil {
			ref, refName = got, e.Name()
			continue
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("engine %s disagrees with %s on seq %d (len %d, qlen %d): %d vs %d",
					e.Name(), refName, i, db.Seqs[i].Len(), len(query), got[i], ref[i])
			}
		}
	}
}

func TestAllEnginesAgreeBLOSUM62(t *testing.T) {
	p := sw.DefaultParams()
	rng := rand.New(rand.NewSource(81))
	for iter := 0; iter < 8; iter++ {
		db := corpus(int64(iter), 25, 200)
		qlen := 1 + rng.Intn(150)
		q := synth.RandomSet(alphabet.Protein, 1, qlen, qlen, int64(iter+500)).Seqs[0].Residues
		crossCheck(t, p, q, db)
	}
}

func TestAllEnginesAgreeAcrossMatricesAndGaps(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	for _, m := range []*scoring.Matrix{scoring.BLOSUM62, scoring.BLOSUM50, scoring.PAM250} {
		for _, gaps := range []scoring.Gaps{{Start: 10, Extend: 2}, {Start: 5, Extend: 1}, {Start: 0, Extend: 4}} {
			p := sw.Params{Matrix: m, Gaps: gaps}
			db := corpus(rng.Int63(), 15, 150)
			q := synth.RandomSet(alphabet.Protein, 1, 80, 80, rng.Int63()).Seqs[0].Residues
			crossCheck(t, p, q, db)
		}
	}
}

func TestAllEnginesAgreeOnHighScores(t *testing.T) {
	// Near-identical long sequences force 8-bit overflow in every SWAR
	// engine; all escalation paths must land on the same exact score.
	p := sw.DefaultParams()
	base := synth.RandomSet(alphabet.Protein, 1, 700, 700, 83).Seqs[0].Residues
	db := seq.NewSet(alphabet.Protein)
	db.AddEncoded("self", "", base)
	mut := append([]byte(nil), base...)
	for i := 50; i < len(mut); i += 97 {
		mut[i] = (mut[i] + 1) % 20
	}
	db.AddEncoded("mutated", "", mut)
	db.AddEncoded("short", "", base[:9])
	crossCheck(t, p, base, db)
}

func TestAllEnginesAgreeOnDegenerateInputs(t *testing.T) {
	p := sw.DefaultParams()
	db := seq.NewSet(alphabet.Protein)
	db.AddEncoded("empty", "", nil)
	db.AddEncoded("one", "", []byte{0})
	db.AddEncoded("ambig", "", alphabet.Protein.MustEncode("XXXBZ*"))
	for _, q := range [][]byte{
		alphabet.Protein.MustEncode("A"),
		alphabet.Protein.MustEncode("XX*"),
		alphabet.Protein.MustEncode("WWWWWWWW"),
	} {
		crossCheck(t, p, q, db)
	}
}
