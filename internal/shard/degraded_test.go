package shard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"

	"swdual/internal/alphabet"
	"swdual/internal/engine"
	"swdual/internal/faultinject"
	"swdual/internal/master"
	"swdual/internal/remote"
	"swdual/internal/replica"
	"swdual/internal/seq"
	"swdual/internal/synth"
)

// The unit half of the partial-answer suite: an idle fault injector
// changes no answer, and a partial answer cannot cross the wire. Which
// answer a dark range gives over real servers, deaths mid-search
// included, is the root package's cluster model, FuzzClusterModel.

// rangeDownErr fabricates the typed error a replica.Set returns when
// its last replica dies, shaped like the real thing so the tests pin
// the marker-interface detection path end to end.
func rangeDownErr(idx int, r Range) error {
	return &replica.ErrRangeUnavailable{
		Range:    fmt.Sprintf("shard %d [%d,%d)", idx, r.Lo, r.Hi),
		Index:    idx,
		Replicas: 2,
		Cause:    "injected: connection lost",
	}
}

// faultedSearcher builds a sharded Searcher whose every backend is a
// faultinject wrapper over a real per-range engine, returning the
// wrappers so tests can script faults and count calls.
func faultedSearcher(t *testing.T, db *seq.Set, shards, topK int) (*Searcher, []*faultinject.Backend) {
	t.Helper()
	ranges := RangesFor(db, shards, BalancedResidues)
	wrappers := make([]*faultinject.Backend, len(ranges))
	backends := make([]engine.Backend, len(ranges))
	for i, r := range ranges {
		eng, err := engine.New(db.Slice(r.Lo, r.Hi), engine.Config{Pool: master.PoolSpec{CPU: 1, GPU: 1}, TopK: topK})
		if err != nil {
			t.Fatal(err)
		}
		wrappers[i] = faultinject.Wrap(eng)
		backends[i] = wrappers[i]
	}
	s, err := WithBackends(db, BalancedResidues, ranges, backends, topK)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, wrappers
}

// TestIdleFaultInjectKeepsShardedByteIdentical is the no-fault
// equivalence proof: a sharded Searcher whose every backend sits
// behind an idle faultinject wrapper answers byte-identical to an
// unsharded engine, with no Coverage and no degraded count. This is what makes the wrapper
// safe to leave in every chaos topology while asserting full-coverage
// behavior.
func TestIdleFaultInjectKeepsShardedByteIdentical(t *testing.T) {
	const topK = 5
	db := synth.RandomSet(alphabet.Protein, 31, 10, 120, 4001)
	queries := synth.RandomSet(alphabet.Protein, 4, 20, 80, 4002)

	ref, err := engine.New(db, engine.Config{Pool: master.PoolSpec{CPU: 1, GPU: 1}, TopK: topK})
	if err != nil {
		t.Fatal(err)
	}
	want := searchHits(t, ref, queries, 0)
	ref.Close()

	for _, shards := range []int{2, 5} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			s, wrappers := faultedSearcher(t, db, shards, topK)
			rep, err := s.Search(context.Background(), queries, engine.SearchOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Coverage != nil {
				t.Fatalf("full-coverage answer carries Coverage %+v", rep.Coverage)
			}
			if got := hitBytes(t, rep.Results); !bytes.Equal(got, want) {
				t.Fatal("sharded hits behind idle fault injectors differ from unsharded engine")
			}
			if st := s.Stats(); st.DegradedSearches != 0 {
				t.Fatalf("DegradedSearches = %d with no faults", st.DegradedSearches)
			}
			for i, w := range wrappers {
				if n := w.Injected(); n != 0 {
					t.Fatalf("wrapper %d injected %d faults with an empty schedule", i, n)
				}
			}
		})
	}
}

// TestPartialAnswerIsRefusedOnTheWire serves a sharded coordinator
// over the wire protocol: a SearchResult is always a full answer, so a
// remote client asking while a range is dark gets the partial-answer
// ReqError — never the survivors' hits passed off as complete — while
// the connection stays up and the remote Stats still count the
// degraded search. Once the range recovers, a full answer arrives on
// the same connection.
func TestPartialAnswerIsRefusedOnTheWire(t *testing.T) {
	const topK = 3
	db := synth.RandomSet(alphabet.Protein, 22, 10, 100, 4013)
	queries := synth.RandomSet(alphabet.Protein, 2, 20, 60, 4014)

	s, wrappers := faultedSearcher(t, db, 2, topK)
	wrappers[0].SetRules(faultinject.Rule{
		Op: faultinject.OpSearch, Count: 1,
		Fault: faultinject.Fault{Err: rangeDownErr(0, s.ranges[0])},
	})

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go engine.Serve(l, s)
	wb, err := remote.DialTimeout(l.Addr().String(), db.Checksum(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer wb.Close()

	rep, err := wb.Search(context.Background(), queries, engine.SearchOptions{TopK: topK})
	if err == nil {
		t.Fatalf("a degraded answer crossed the wire as a full one: %+v", rep)
	}
	if !strings.Contains(err.Error(), "a partial answer cannot cross the wire") {
		t.Fatalf("degraded search over the wire: %v, want the partial-answer refusal", err)
	}
	if errors.Is(err, remote.ErrConnectionLost) {
		t.Fatalf("the refusal took the connection down: %v", err)
	}
	if st := wb.Stats(); st.DegradedSearches != 1 {
		t.Fatalf("remote Stats DegradedSearches = %d, want 1", st.DegradedSearches)
	}

	// Recovery over the same connection: a full answer.
	ref, err := engine.New(db, engine.Config{Pool: master.PoolSpec{CPU: 1, GPU: 1}, TopK: topK})
	if err != nil {
		t.Fatal(err)
	}
	full := searchHits(t, ref, queries, 0)
	ref.Close()
	rep, err = wb.Search(context.Background(), queries, engine.SearchOptions{TopK: topK})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Coverage != nil {
		t.Fatalf("recovered remote answer still carries Coverage %+v", rep.Coverage)
	}
	if got := hitBytes(t, rep.Results); !bytes.Equal(got, full) {
		t.Fatal("recovered remote hits differ from unsharded engine")
	}
}
