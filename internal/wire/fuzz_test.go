package wire

import (
	"bytes"
	"math"
	"testing"
)

// FuzzUnmarshal hammers the frame decoder with arbitrary type codes and
// payloads: wire bytes are untrusted input, so malformed frames must
// come back as errors — never a panic or runaway allocation — and any
// frame that does decode must survive a marshal/unmarshal round trip
// unchanged (the decoder and encoder agree on the format).
// retired lists the type codes versions 8 and 10 retired, and the Done
// frame's 5, which no peer sent; they must decode as unknown types
// forever.
var retired = []byte{5, 13, 14, 15, 16, 17, 18}

func FuzzUnmarshal(f *testing.F) {
	seed := func(msg any) {
		typ, payload, err := Marshal(msg)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(typ, payload)
	}
	seed(&Hello{Version: Version, Name: "client-1", DBChecksum: 0xdeadbeef})
	seed(&Hello{})
	seed(&Welcome{Version: Version, DBChecksum: 7, Alphabet: "protein", TopK: 10, Matrix: "BLOSUM62", GapStart: 10, GapExtend: 2})
	seed(&Welcome{Version: Version, DBChecksum: 7, Alphabet: "dna"}) // a server that names no cap and no scoring
	seed(&ErrorMsg{Text: "boom"})
	// Session frames: request ids, nested result lists, float slices
	// (floats must round-trip bit-exactly, NaN included).
	seed(&SearchRequest{ID: 6})
	seed(&SearchResult{ID: 6, Results: []Result{{QueryIndex: 1, ElapsedNS: 5, Cells: 99,
		Hits: []ResultHit{{SeqIndex: 4, Score: -3, SeqID: "hit"}, {SeqIndex: 0, Score: 120, SeqID: ""}}}}})
	seed(&SearchRequest{ID: 7, TopK: 5, Queries: []Query{{ID: "q0", Residues: []byte{0, 1, 2}}, {ID: "", Residues: nil}}})
	seed(&SearchResult{ID: 7, Results: []Result{
		{QueryIndex: 0, ElapsedNS: 3, Cells: 12, Hits: []ResultHit{{SeqIndex: 1, Score: 44, SeqID: "s"}}},
		{QueryIndex: 1},
	}})
	seed(&Cancel{ID: 9})
	seed(&ReqError{ID: 9, Text: "engine: searcher is closed"})
	seed(&StatsRequest{ID: 2})
	seed(&StatsResponse{ID: 2, DBSequences: 10, DBResidues: 1234, DBChecksum: 0xfeed, Prepared: 1, WorkersStarted: 2,
		Counters: []Counter{{"searches", 3}, {"queries", 4}, {"waves", 5}, {"batched_waves", 1}, {"cache_hits", 11},
			{"failed_over", 20}, {"redials", 21}, {"degraded_searches", 22}},
		Workers: []WorkerRateInfo{{Name: "gpu-0", Kind: 1, AdvertisedGCUPS: 24.8, ObservedGCUPS: math.NaN(), Tasks: 7}, {Name: "", Kind: 0}}})
	// Names are not the wire's business: unknown, empty and repeated ones
	// decode as sent.
	seed(&StatsResponse{ID: 3, Counters: []Counter{{"not_yet_invented", 1 << 63}, {"", 0}, {"waves", 1}, {"waves", 2}}})
	// Malformed seeds: truncated fields, lying length prefixes, huge hit
	// counts, unknown type codes.
	f.Add(TypeHello, []byte{1})
	// The codes the retired Task and Result frames used must stay
	// unknown, whatever follows them.
	f.Add(byte(3), []byte{1, 0, 0, 0, 0xff, 0xff})
	f.Add(byte(4), []byte{0xff, 0xff, 0xff, 0xff})
	// So must the four codes version 8 retired (the plan pair, 13 and 14,
	// and the database-description pair, 17 and 18), the checksum pair
	// version 10 retired (15 and 16) and the Done frame's 5: an 8-byte
	// request id (the whole version 9 checksum request), longer payloads,
	// and a lying length prefix.
	for _, code := range retired {
		f.Add(code, make([]byte, 8))
		f.Add(code, append(make([]byte, 8), 3, 0, 0, 0, 30, 0, 0, 0, 80, 0, 0, 0, 120, 0, 0, 0))
		f.Add(code, append(make([]byte, 8), 0xff, 0xff, 0xff, 0x7f))
	}
	f.Add(TypeError, []byte{0xff, 0xff, 'x'})
	f.Add(byte(0), []byte{})
	f.Add(byte(200), []byte("garbage"))
	// Malformed session frames: truncated ids, lying query/result
	// counts (must error before allocating), huge float-slice counts,
	// a result list whose inner hit count lies.
	f.Add(TypeSearchRequest, []byte{1, 2, 3})
	f.Add(TypeSearchRequest, append(make([]byte, 16), 0xff, 0xff, 0xff, 0x7f))
	f.Add(TypeSearchResult, append(make([]byte, 8), 0xff, 0xff, 0xff, 0x7f))
	f.Add(TypeSearchResult, append(make([]byte, 12), 0xff, 0xff, 0xff, 0x7f, 1, 2, 3))
	// One result whose 20 bytes of fixed fields are followed by a hit
	// count the payload cannot hold.
	f.Add(TypeSearchResult, append(append(append(make([]byte, 8), 1, 0, 0, 0), make([]byte, 20)...), 0xff, 0xff, 0xff, 0x7f))
	// The smallest whole SearchResult: an id and a zero result count,
	// nothing after it (since version 11 there is no trailing coverage block).
	f.Add(TypeSearchResult, append(make([]byte, 8), 0, 0, 0, 0))
	f.Add(TypeCancel, []byte{1, 2})
	f.Add(TypeReqError, append(make([]byte, 8), 0xff, 0xff, 'x'))
	f.Add(TypeStatsResponse, make([]byte, 10))
	// StatsResponses whose counter or worker count lies about the payload
	// (the fixed fields occupy exactly 32 bytes in version 10, followed by
	// the counter count; a zero counter count is then followed by the
	// worker count).
	f.Add(TypeStatsResponse, append(make([]byte, 32), 0xff, 0xff, 0xff, 0x7f))
	f.Add(TypeStatsResponse, append(make([]byte, 36), 0xff, 0xff, 0xff, 0x7f))
	// A Welcome whose alphabet-name prefix lies about the payload.
	f.Add(TypeWelcome, append(make([]byte, 8), 0xff, 0xff, 'x'))
	// A version 8 Welcome: the alphabet name ends the payload, where
	// version 9 reads the TopK cap — must fail as truncated.
	f.Add(TypeWelcome, append(make([]byte, 8), 7, 0, 'p', 'r', 'o', 't', 'e', 'i', 'n'))
	// A version 12 Welcome: the TopK cap ends the payload, where version
	// 13 reads the matrix name — must fail as truncated.
	f.Add(TypeWelcome, append(append(make([]byte, 8), 7, 0, 'p', 'r', 'o', 't', 'e', 'i', 'n'), 10, 0, 0, 0))

	f.Fuzz(func(t *testing.T, typ byte, payload []byte) {
		msg, err := Unmarshal(typ, payload) // must never panic
		if err != nil {
			return
		}
		if bytes.IndexByte(retired, typ) >= 0 {
			t.Fatalf("retired type code %d decoded as %T", typ, msg)
		}
		typ2, p2, err := Marshal(msg)
		if err != nil {
			t.Fatalf("decoded %T does not re-marshal: %v", msg, err)
		}
		if typ2 != typ {
			t.Fatalf("type changed across round trip: %d -> %d", typ, typ2)
		}
		msg2, err := Unmarshal(typ2, p2)
		if err != nil {
			t.Fatalf("re-decode of %T failed: %v", msg, err)
		}
		// Compare the canonical encodings, not the structs: byte equality
		// is the actual wire contract and stays true for NaN floats,
		// where reflect.DeepEqual would lie.
		typ3, p3, err := Marshal(msg2)
		if err != nil {
			t.Fatalf("re-decoded %T does not re-marshal: %v", msg2, err)
		}
		if typ3 != typ2 || !bytes.Equal(p3, p2) {
			t.Fatalf("encoding not a fixpoint:\n first: %x\nsecond: %x", p2, p3)
		}
	})
}
