package enginetest

import (
	"bytes"
	"context"
	"encoding/binary"
	"sync"
	"testing"

	"swdual/internal/alphabet"
	"swdual/internal/engine"
	"swdual/internal/master"
	"swdual/internal/seq"
	"swdual/internal/sw"
	"swdual/internal/synth"
)

// hitBytes serializes a result's hits so "byte-identical" is literal.
func hitBytes(t *testing.T, results []master.QueryResult) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, res := range results {
		binary.Write(&buf, binary.LittleEndian, int64(res.QueryIndex))
		binary.Write(&buf, binary.LittleEndian, int64(len(res.Hits)))
		for _, h := range res.Hits {
			binary.Write(&buf, binary.LittleEndian, int64(h.SeqIndex))
			binary.Write(&buf, binary.LittleEndian, int64(h.Score))
			buf.WriteString(h.SeqID)
		}
	}
	return buf.Bytes()
}

// oracle is the reference every Searcher answer in this package is
// checked against: sw.Score of each query against every subject, ranked
// by master.TopHits. It shares no code with the Pool, the policies or
// the Merger under test.
func oracle(db, queries *seq.Set, k int) []master.QueryResult {
	params := sw.DefaultParams()
	results := make([]master.QueryResult, queries.Len())
	for qi := range queries.Seqs {
		scores := make([]int, db.Len())
		for i := range db.Seqs {
			scores[i] = sw.Score(params, queries.Seqs[qi].Residues, db.Seqs[i].Residues)
		}
		results[qi] = master.QueryResult{QueryIndex: qi, Hits: master.TopHits(db, scores, k)}
	}
	return results
}

// TestPersistentPoolMatchesOneShot is the engine-layer cross-check: a
// persistent Searcher serving many requests must hand back hits
// byte-identical to a one-shot oracle pass over the database, for every
// policy.
func TestPersistentPoolMatchesOneShot(t *testing.T) {
	db := synth.RandomSet(alphabet.Protein, 60, 10, 200, 91)
	params := sw.DefaultParams()
	for _, policy := range []master.Policy{master.PolicyDualApprox, master.PolicySelfScheduling, master.PolicyRoundRobin} {
		s, err := engine.New(db, engine.Config{
			Params: params, Pool: master.PoolSpec{CPU: 2, GPU: 2}, TopK: 5, Policy: policy,
		})
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 3; round++ {
			queries := synth.RandomSet(alphabet.Protein, 8, 20, 120, int64(700+round))
			got, err := s.Search(context.Background(), queries, engine.SearchOptions{})
			if err != nil {
				t.Fatalf("%v round %d: %v", policy, round, err)
			}
			if !bytes.Equal(hitBytes(t, got.Results), hitBytes(t, oracle(db, queries, 5))) {
				t.Fatalf("%v round %d: persistent-pool hits differ from one-shot", policy, round)
			}
			// Every static policy plans its wave; self-scheduling allocates
			// while the workers run.
			if (got.Schedule == nil) != (policy == master.PolicySelfScheduling) {
				t.Fatalf("%v round %d: wave schedule %v", policy, round, got.Schedule)
			}
		}
		s.Close()
	}
}

// TestConcurrentWavesMatchOneShot: whatever the policy, a Searcher whose
// concurrent callers coalesce into shared waves must return hits
// byte-identical to a one-shot oracle pass over the database — across
// enough rounds that waves follow one another on the same pool.
func TestConcurrentWavesMatchOneShot(t *testing.T) {
	db := synth.RandomSet(alphabet.Protein, 55, 10, 190, 93)
	params := sw.DefaultParams()
	for _, policy := range []master.Policy{master.PolicyDualApprox, master.PolicySelfScheduling, master.PolicyRoundRobin} {
		s, err := engine.New(db, engine.Config{
			Params: params, Pool: master.PoolSpec{CPU: 2, GPU: 1}, TopK: 5, Policy: policy,
		})
		if err != nil {
			t.Fatal(err)
		}
		const callers = 4
		for round := 0; round < 2; round++ {
			var wg sync.WaitGroup
			reports := make([]*master.Report, callers)
			errs := make([]error, callers)
			querySets := make([]*seq.Set, callers)
			for i := range querySets {
				querySets[i] = synth.RandomSet(alphabet.Protein, 4, 20, 120, int64(800+10*round+i))
			}
			for i := 0; i < callers; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					reports[i], errs[i] = s.Search(context.Background(), querySets[i], engine.SearchOptions{})
				}(i)
			}
			wg.Wait()
			for i := 0; i < callers; i++ {
				if errs[i] != nil {
					t.Fatalf("%v round %d caller %d: %v", policy, round, i, errs[i])
				}
				if !bytes.Equal(hitBytes(t, reports[i].Results), hitBytes(t, oracle(db, querySets[i], 5))) {
					t.Fatalf("%v round %d caller %d: coalesced-wave hits differ from one-shot", policy, round, i)
				}
			}
		}
		s.Close()
	}
}

// TestMixedPoolsMatchStaticRatePath is the adaptive-scheduling
// equivalence guarantee: whatever pool spec backs the Searcher — pure
// inter-sequence CPUs, GPUs, or any mix of the two — and however
// far its measured rates drift from the advertised seeds over repeated
// waves, the hits must stay byte-identical to the oracle, which knows
// no rates at all. Rates move tasks between workers; they never touch
// what a worker computes.
func TestMixedPoolsMatchStaticRatePath(t *testing.T) {
	db := synth.RandomSet(alphabet.Protein, 50, 10, 180, 92)
	params := sw.DefaultParams()
	queries := synth.RandomSet(alphabet.Protein, 10, 20, 120, 903)

	want := hitBytes(t, oracle(db, queries, 5))

	for _, spec := range []master.PoolSpec{
		{CPU: 2},
		{GPU: 1},
		{CPU: 1, GPU: 1},
		{CPU: 3, GPU: 1},
		{CPU: 1, GPU: 2},
	} {
		s, err := engine.New(db, engine.Config{Params: params, Pool: spec, TopK: 5})
		if err != nil {
			t.Fatalf("pool %v: %v", spec, err)
		}
		// Several rounds so the EWMA estimates move well away from the
		// advertised seeds between waves.
		for round := 0; round < 3; round++ {
			got, err := s.Search(context.Background(), queries, engine.SearchOptions{})
			if err != nil {
				t.Fatalf("pool %v round %d: %v", spec, round, err)
			}
			if !bytes.Equal(hitBytes(t, got.Results), want) {
				t.Fatalf("pool %v round %d: hits differ from the oracle", spec, round)
			}
		}
		s.Close()
	}
}
