package wire

import (
	"bytes"
	"net"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, msg any) any {
	t.Helper()
	typ, payload, err := Marshal(msg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Unmarshal(typ, payload)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestHelloRoundTrip(t *testing.T) {
	in := &Hello{Version: 1, Name: "client-é-1", DBChecksum: 0xDEADBEEF}
	if got := roundTrip(t, in); !reflect.DeepEqual(got, in) {
		t.Fatalf("got %+v want %+v", got, in)
	}
}

func TestWelcomeRoundTrip(t *testing.T) {
	in := &Welcome{Version: 1, DBChecksum: 7, Alphabet: "protein", TopK: 20, Matrix: "PAM250", GapStart: 11, GapExtend: 1}
	if got := roundTrip(t, in); !reflect.DeepEqual(got, in) {
		t.Fatalf("got %+v", got)
	}
}

// TestResultRoundTrip covers the per-query Result entries — negative
// scores, empty hit lists — inside the SearchResult frame that carries
// them.
func TestResultRoundTrip(t *testing.T) {
	in := &SearchResult{ID: 4, Results: []Result{
		{
			QueryIndex: 9,
			ElapsedNS:  123456789,
			Cells:      1 << 40,
			Hits: []ResultHit{
				{SeqIndex: 1, Score: 100, SeqID: "hit-1"},
				{SeqIndex: 2, Score: -3, SeqID: "hit-2"},
			},
		},
		{QueryIndex: 10, Hits: []ResultHit{}},
	}}
	if got := roundTrip(t, in); !reflect.DeepEqual(got, in) {
		t.Fatalf("got %+v", got)
	}
}

func TestErrorRoundTrip(t *testing.T) {
	in := &ErrorMsg{Text: "boom"}
	if got := roundTrip(t, in); !reflect.DeepEqual(got, in) {
		t.Fatalf("got %+v", got)
	}
}

func TestMarshalUnknownType(t *testing.T) {
	if _, _, err := Marshal(42); err == nil {
		t.Fatal("unknown message type must fail")
	}
	if _, err := Unmarshal(200, nil); err == nil {
		t.Fatal("unknown type code must fail")
	}
}

func TestTruncatedPayloads(t *testing.T) {
	typ, payload, err := Marshal(&SearchResult{ID: 1, Results: []Result{{QueryIndex: 1, Hits: []ResultHit{{SeqIndex: 1, Score: 2, SeqID: "x"}}}}})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(payload); cut++ {
		if _, err := Unmarshal(typ, payload[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d must fail", cut, len(payload))
		}
	}
}

func TestHostileHitCount(t *testing.T) {
	// A forged hit count must not cause a huge allocation.
	var e encoder
	e.u64(1)          // request id
	e.u32(1)          // result count
	e.u32(1)          // query index
	e.u64(0)          // elapsed
	e.u64(0)          // cells
	e.u32(0xFFFFFFFF) // hit count lie
	if _, err := Unmarshal(TypeSearchResult, e.buf); err == nil {
		t.Fatal("hostile hit count must fail")
	}
}

func TestConnOverPipe(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	ca, cb := NewConn(a), NewConn(b)
	done := make(chan error, 1)
	go func() {
		done <- ca.Send(&Hello{Version: 1, Name: "w"})
	}()
	msg, err := cb.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	hello, ok := msg.(*Hello)
	if !ok || hello.Name != "w" {
		t.Fatalf("got %+v", msg)
	}
	// And the reverse direction with an Error frame.
	go func() { done <- cb.Send(&ErrorMsg{Text: "bye"}) }()
	msg, err = ca.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if em, ok := msg.(*ErrorMsg); !ok || em.Text != "bye" {
		t.Fatalf("expected ErrorMsg, got %+v", msg)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// Property: queries of arbitrary content round-trip exactly inside a
// SearchRequest.
func TestQuickSearchRequestRoundTrip(t *testing.T) {
	f := func(id uint64, topK uint32, qid string, residues []byte) bool {
		if len(qid) > 1000 {
			qid = qid[:1000]
		}
		in := &SearchRequest{ID: id, TopK: topK, Queries: []Query{{ID: qid, Residues: residues}}}
		typ, payload, err := Marshal(in)
		if err != nil {
			return false
		}
		outAny, err := Unmarshal(typ, payload)
		if err != nil {
			return false
		}
		out := outAny.(*SearchRequest)
		return out.ID == id && out.TopK == topK && len(out.Queries) == 1 &&
			out.Queries[0].ID == qid && bytes.Equal(out.Queries[0].Residues, residues)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsResponseRoundTrip(t *testing.T) {
	in := &StatsResponse{
		ID: 9, DBSequences: 10, DBResidues: 1234, DBChecksum: 0xfeed,
		Prepared: 1, WorkersStarted: 3,
		Counters: []Counter{{"searches", 4}, {"queries", 5}, {"waves", 6}, {"batched_waves", 2},
			{"cache_hits", 7}, {"failed_over", 2}, {"redials", 1}, {"unknown_to_this_build", 1 << 40}},
		Workers: []WorkerRateInfo{
			{Name: "gpu-0", Kind: 1, AdvertisedGCUPS: 24.8, ObservedGCUPS: 31.5, Tasks: 12},
			{Name: "cpu-0", Kind: 0, AdvertisedGCUPS: 8.335, ObservedGCUPS: 7.9, Tasks: 4},
			{Name: "striped-0", Kind: 0, AdvertisedGCUPS: 8.335, ObservedGCUPS: 8.335, Tasks: 0},
		},
	}
	if got := roundTrip(t, in); !reflect.DeepEqual(got, in) {
		t.Fatalf("got %+v want %+v", got, in)
	}
}

func TestStatsResponseHostileWorkerCount(t *testing.T) {
	// A frame whose worker count claims more entries than the payload
	// could hold must error out before allocating.
	in := &StatsResponse{ID: 1}
	typ, payload, err := Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	// Overwrite the trailing worker-count u32 with a huge value.
	copy(payload[len(payload)-4:], []byte{0xff, 0xff, 0xff, 0x7f})
	if _, err := Unmarshal(typ, payload); err == nil || !strings.Contains(err.Error(), "worker count") {
		t.Fatalf("lying worker count: %v, want the worker count refused", err)
	}
}

func TestStatsResponseHostileCounterCount(t *testing.T) {
	// The counter list is count-validated like every other list: a count
	// the payload cannot hold at 10 bytes a counter fails before the
	// slice is made.
	typ, payload, err := Marshal(&StatsResponse{ID: 1, Counters: []Counter{{"waves", 1}}})
	if err != nil {
		t.Fatal(err)
	}
	// The counter count follows the 32 bytes of fixed fields.
	copy(payload[32:36], []byte{0xff, 0xff, 0xff, 0x7f})
	if _, err := Unmarshal(typ, payload); err == nil || !strings.Contains(err.Error(), "counter count") {
		t.Fatalf("lying counter count: %v, want the counter count refused", err)
	}
}

// TestLyingCountsFailBeforeAllocating: each list count is checked
// against the true minimum size of its entries — 6 bytes a query, 32 a
// result, 10 a hit — not against one byte an entry. Each frame here is
// 1 MiB and declares as many entries as it has bytes left, which a
// one-byte guard lets through to allocate tens of MiB for entries that
// are not there before the payload runs out.
func TestLyingCountsFailBeforeAllocating(t *testing.T) {
	const frame = 1 << 20
	lying := func(head encoder) []byte {
		rest := frame - len(head.buf) - 4
		head.u32(uint32(rest))
		return append(head.buf, make([]byte, rest)...)
	}
	var req, res, hits encoder
	req.u64(1) // id
	req.u32(0) // TopK; the query count follows
	res.u64(1) // id; the result count follows
	hits.u64(1)
	hits.u32(1) // one result, whose fixed fields come next
	hits.u32(0)
	hits.u64(0)
	hits.u64(0) // the hit count follows
	for _, c := range []struct {
		typ     byte
		payload []byte
		want    string
	}{
		{TypeSearchRequest, lying(req), "query count"},
		{TypeSearchResult, lying(res), "result count"},
		{TypeSearchResult, lying(hits), "hit count"},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Unmarshal(c.typ, c.payload)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), c.want) || !strings.Contains(err.Error(), "exceeds payload") {
			t.Fatalf("%s: %v, want the %s refused as exceeding the payload", c.want, err, c.want)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > frame {
			t.Fatalf("%s: decoding a %d-byte frame allocated %d bytes", c.want, frame, grew)
		}
	}
}
