// Allocation caps are meaningless under the race detector: -race makes
// sync.Pool deliberately drop ~25% of Put items, so pooled buffers
// reallocate by design and the caps would fail spuriously.

//go:build !race

package swvector

import (
	"math/rand"
	"testing"

	"swdual/internal/alphabet"
	"swdual/internal/scoring"
	"swdual/internal/sw"
	"swdual/internal/synth"
)

// Allocation-regression caps: once the row pools are warm, the striped
// kernels must not touch the allocator per subject — that is the whole
// point of pooling the H/E rows. The caps allow a fractional average so
// a stray GC emptying a sync.Pool mid-measurement cannot flake the
// build, but any real per-call allocation (1.0 or more) fails.
const kernelAllocCap = 0.5

func TestAllocsStripedKernel8(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	params := sw.DefaultParams()
	query := randSeq(rng, 120)
	subject := randSeq(rng, 200)
	p8, err := scoring.NewStripedProfile8(params.Matrix, query)
	if err != nil {
		t.Fatal(err)
	}
	scoreStriped8(p8, params.Gaps, subject) // warm the row pool
	if avg := testing.AllocsPerRun(50, func() {
		scoreStriped8(p8, params.Gaps, subject)
	}); avg > kernelAllocCap {
		t.Fatalf("scoreStriped8 allocates %.2f objects per call, want 0", avg)
	}
}

func TestAllocsStripedKernel16(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	params := sw.DefaultParams()
	query := randSeq(rng, 120)
	subject := randSeq(rng, 200)
	p16 := scoring.NewStripedProfile16(params.Matrix, query)
	scoreStriped16(p16, params.Gaps, subject)
	if avg := testing.AllocsPerRun(50, func() {
		scoreStriped16(p16, params.Gaps, subject)
	}); avg > kernelAllocCap {
		t.Fatalf("scoreStriped16 allocates %.2f objects per call, want 0", avg)
	}
}

// TestAllocsInterSeqSteadyState pins the whole-task allocation budget of
// the inter-sequence engine on both column kernels: with the kernel
// pooled and the database's lane plan built by the first call, a Scores
// call may allocate only its output slice and overflow bookkeeping — a
// constant, not a function of the subject count. The query carries a
// planted homolog of one subject, so the rescue rung — the pooled pair
// kernel behind the AVX2 column, sw.Score's two rows behind the SWAR one
// — is inside the budget.
func TestAllocsInterSeqSteadyState(t *testing.T) {
	db := synth.RandomSet(alphabet.Protein, 64, 10, 150, 41)
	db.AddEncoded("long", "", randSeq(rand.New(rand.NewSource(45)), 400))
	query := plantedQuery(rand.New(rand.NewSource(42)), db, db.Len()-1, 240)
	eachKernel(t, func(t *testing.T, newEngine func(sw.Params) *InterSeq) {
		e := newEngine(sw.DefaultParams())
		if got := flaggedBy(e, query, db); len(got) != 1 {
			t.Fatalf("%s flagged %v, want the planted subject alone", e.Name(), got)
		}
		e.Scores(query, db) // warm the kernel pool
		// Budget: the out slice plus small escalation bookkeeping. The cap is
		// deliberately a hard small constant — before pooling, this path cost
		// O(queryLen) words per call.
		const interAllocCap = 8
		if avg := testing.AllocsPerRun(20, func() {
			e.Scores(query, db)
		}); avg > interAllocCap {
			t.Fatalf("%s.Scores allocates %.1f objects per call, cap %d", e.Name(), avg, interAllocCap)
		}
	})
}

// TestAllocsRescuePairKernel pins the rescue rung itself: with its pool
// warm, building the striped profile of a query and scoring a subject
// against it allocates nothing (the sw.Score call it replaces costs two
// rows a subject).
func TestAllocsRescuePairKernel(t *testing.T) {
	skipWithoutAVX2(t)
	rng := rand.New(rand.NewSource(46))
	query, subject := randSeq(rng, 270), randSeq(rng, 400)
	tab := newAVX2Tables(sw.DefaultParams())
	rescue := func() {
		k := newPairKernel(tab, query)
		k.score(subject)
		k.release()
	}
	rescue() // warm the kernel pool
	if avg := testing.AllocsPerRun(50, rescue); avg > kernelAllocCap {
		t.Fatalf("the pair kernel allocates %.2f objects per rescue, want 0", avg)
	}
}

// TestAllocsStripedEngineSteadyState is the same budget for the striped
// engine's rows: with the profiles built once outside the measured call,
// each call pays the output slice and nothing per subject.
func TestAllocsStripedEngineSteadyState(t *testing.T) {
	db := synth.RandomSet(alphabet.Protein, 64, 10, 150, 43)
	query := synth.RandomSet(alphabet.Protein, 1, 80, 80, 44).Seqs[0].Residues
	params := sw.DefaultParams()
	e := NewStriped(params)
	prof := scoring.NewQueryProfiles(params.Matrix, query)
	e.scores(query, prof, db) // warm pools and build the profiles once
	const stripedAllocCap = 8
	if avg := testing.AllocsPerRun(20, func() {
		e.scores(query, prof, db)
	}); avg > stripedAllocCap {
		t.Fatalf("Striped.scores allocates %.1f objects per call, cap %d", avg, stripedAllocCap)
	}
}
