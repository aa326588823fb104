package remote

import (
	"bytes"
	"context"
	"encoding/binary"
	"net"
	"reflect"
	"sync"
	"testing"

	"swdual/internal/alphabet"
	"swdual/internal/engine"
	"swdual/internal/master"
	"swdual/internal/sched"
	"swdual/internal/seq"
	"swdual/internal/synth"
)

// startServer runs an engine.Serve endpoint over db and returns its
// address plus the serving engine (for direct local comparison).
func startServer(t *testing.T, db *seq.Set, ecfg engine.Config) (string, *engine.Searcher) {
	t.Helper()
	eng, err := engine.New(db, ecfg)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		eng.Close()
		t.Fatal(err)
	}
	go engine.Serve(l, eng)
	t.Cleanup(func() {
		l.Close()
		eng.Close()
	})
	return l.Addr().String(), eng
}

func hitBytes(t *testing.T, results []master.QueryResult) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, res := range results {
		binary.Write(&buf, binary.LittleEndian, int64(len(res.Hits)))
		for _, h := range res.Hits {
			binary.Write(&buf, binary.LittleEndian, int64(h.SeqIndex))
			binary.Write(&buf, binary.LittleEndian, int64(h.Score))
			buf.WriteString(h.SeqID)
		}
	}
	return buf.Bytes()
}

// TestBackendMatchesLocalEngine: one Backend, many concurrent in-flight
// searches on the one connection, every result byte-identical to the
// serving engine's own local answer.
func TestBackendMatchesLocalEngine(t *testing.T) {
	db := synth.RandomSet(alphabet.Protein, 30, 10, 120, 4001)
	addr, eng := startServer(t, db, engine.Config{Pool: master.PoolSpec{CPU: 1, GPU: 1}, TopK: 5})
	b, err := Dial(addr, db.Checksum())
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	if b.Checksum() != eng.Checksum() {
		t.Fatalf("cached checksum %08x != engine %08x", b.Checksum(), eng.Checksum())
	}
	if b.Alphabet() != alphabet.Protein {
		t.Fatalf("alphabet %v", b.Alphabet().Name())
	}

	const concurrent = 8
	var wg sync.WaitGroup
	for i := 0; i < concurrent; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			queries := synth.RandomSet(alphabet.Protein, 3, 20, 90, int64(4100+i))
			got, err := b.Search(context.Background(), queries, engine.SearchOptions{})
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			want, err := eng.Search(context.Background(), queries, engine.SearchOptions{})
			if err != nil {
				t.Errorf("client %d local: %v", i, err)
				return
			}
			if !bytes.Equal(hitBytes(t, got.Results), hitBytes(t, want.Results)) {
				t.Errorf("client %d: remote hits differ from local", i)
			}
		}(i)
	}
	wg.Wait()
	if st := b.Stats(); st.Searches < concurrent {
		t.Fatalf("server stats report %d searches for %d clients", st.Searches, concurrent)
	}
}

// TestBackendTopKOption: the per-request cap crosses the wire.
func TestBackendTopKOption(t *testing.T) {
	db := synth.RandomSet(alphabet.Protein, 20, 10, 80, 4201)
	addr, _ := startServer(t, db, engine.Config{Pool: master.PoolSpec{CPU: 1}, TopK: 6})
	b, err := Dial(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	queries := synth.RandomSet(alphabet.Protein, 2, 20, 60, 4202)
	rep, err := b.Search(context.Background(), queries, engine.SearchOptions{TopK: 2})
	if err != nil {
		t.Fatal(err)
	}
	for qi, r := range rep.Results {
		if len(r.Hits) != 2 {
			t.Fatalf("query %d: %d hits, want 2", qi, len(r.Hits))
		}
	}
}

// TestBackendPlanStatsChecksum round-trips the Stats frame against the
// serving engine's own answer, and the checksum the Welcome carried.
// (The name predates wire versions 8 and 10, which retired the Plan and
// Checksum frames.)
func TestBackendPlanStatsChecksum(t *testing.T) {
	db := synth.RandomSet(alphabet.Protein, 25, 20, 150, 4301)
	addr, eng := startServer(t, db, engine.Config{Pool: master.PoolSpec{CPU: 2, GPU: 1}, TopK: 5})
	b, err := Dial(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	if b.Checksum() != eng.Checksum() {
		t.Fatalf("handshake checksum %08x, want %08x", b.Checksum(), eng.Checksum())
	}

	st := b.Stats()
	est := eng.Stats()
	if st.DBSequences != est.DBSequences || st.DBChecksum != est.DBChecksum ||
		st.Prepared != est.Prepared || st.WorkersStarted != est.WorkersStarted {
		t.Fatalf("stats %+v, want %+v", st, est)
	}
	// The per-worker rate snapshot must cross the wire intact: same
	// workers, kinds and advertised rates as the server engine reports
	// locally (observed rates are live and may move between the calls).
	if len(st.Workers) != len(est.Workers) {
		t.Fatalf("%d worker rates over the wire, server reports %d", len(st.Workers), len(est.Workers))
	}
	for i := range st.Workers {
		got, want := st.Workers[i], est.Workers[i]
		if got.Name != want.Name || got.Kind != want.Kind || got.AdvertisedGCUPS != want.AdvertisedGCUPS {
			t.Fatalf("worker rate %d: %+v over the wire, server reports %+v", i, got, want)
		}
	}
}

// statsBackend is a Backend that only describes itself: Stats returns
// st, and Search is never called.
type statsBackend struct {
	engine.Backend
	st engine.Stats
}

func (b *statsBackend) Stats() engine.Stats          { return b.st }
func (b *statsBackend) Checksum() uint32             { return b.st.DBChecksum }
func (b *statsBackend) Alphabet() *alphabet.Alphabet { return alphabet.Protein }
func (b *statsBackend) Close() error                 { return nil }

// TestStatsRoundTripEveryCounter: a Stats snapshot with every listed
// counter, the preparation and worker counts and two workers set to
// distinct values crosses engine.Serve and remote.Dial unchanged — the
// counter list alone decides what the wire carries.
func TestStatsRoundTripEveryCounter(t *testing.T) {
	want := engine.Stats{DBSequences: 11, DBResidues: 1 << 33, DBChecksum: 0xfeed, Prepared: 2, WorkersStarted: 3,
		Workers: []engine.WorkerRate{
			{Name: "cpu-0", Kind: sched.CPU, AdvertisedGCUPS: 8.5, ObservedGCUPS: 21.25, Tasks: 17},
			{Name: "gpu-0", Kind: sched.GPU, AdvertisedGCUPS: 24.8, ObservedGCUPS: 31.5, Tasks: 4},
		}}
	for i, c := range engine.Counters {
		*c.Of(&want) = uint64(1000 + i)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go engine.Serve(l, &statsBackend{st: want})
	b, err := Dial(l.Addr().String(), want.DBChecksum)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if got := b.Stats(); !reflect.DeepEqual(got, want) {
		t.Fatalf("stats over the wire\n got %+v\nwant %+v", got, want)
	}
}

// TestServerRoundsMatchLocalEngine runs rounds of concurrent clients
// against one serve endpoint, so the server's dispatcher coalesces them
// into wave after wave on one session, and requires every answer to be
// byte-identical to the serving engine's own local answer.
func TestServerRoundsMatchLocalEngine(t *testing.T) {
	db := synth.RandomSet(alphabet.Protein, 30, 10, 120, 4801)
	addr, eng := startServer(t, db, engine.Config{Pool: master.PoolSpec{CPU: 1, GPU: 1}, TopK: 5})
	b, err := Dial(addr, db.Checksum())
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	const concurrent = 6
	for round := 0; round < 2; round++ {
		var wg sync.WaitGroup
		gots := make([]*master.Report, concurrent)
		wants := make([]*master.Report, concurrent)
		errs := make([]error, 2*concurrent)
		for i := 0; i < concurrent; i++ {
			queries := synth.RandomSet(alphabet.Protein, 2, 20, 90, int64(4900+10*round+i))
			wg.Add(2)
			go func(i int) {
				defer wg.Done()
				gots[i], errs[2*i] = b.Search(context.Background(), queries, engine.SearchOptions{})
			}(i)
			go func(i int) {
				defer wg.Done()
				wants[i], errs[2*i+1] = eng.Search(context.Background(), queries, engine.SearchOptions{})
			}(i)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("round %d call %d: %v", round, i, err)
			}
		}
		for i := range gots {
			if !bytes.Equal(hitBytes(t, gots[i].Results), hitBytes(t, wants[i].Results)) {
				t.Fatalf("round %d client %d: remote hits differ from local", round, i)
			}
		}
	}
}

// TestDialRejectsChecksumMismatch: the skew guard fires at dial, on
// both ends (the server refuses the Hello, the client refuses the
// Welcome — either way Dial errors).
func TestDialRejectsChecksumMismatch(t *testing.T) {
	db := synth.RandomSet(alphabet.Protein, 10, 10, 60, 4401)
	addr, _ := startServer(t, db, engine.Config{Pool: master.PoolSpec{CPU: 1}})
	if _, err := Dial(addr, db.Checksum()+1); err == nil {
		t.Fatal("checksum mismatch accepted at dial")
	}
	// A matching checksum still dials fine afterwards.
	b, err := Dial(addr, db.Checksum())
	if err != nil {
		t.Fatalf("server unhealthy after rejected dial: %v", err)
	}
	b.Close()
}

// TestBackendRejectsForeignAlphabet: queries encoded with a different
// alphabet than the server database must be refused client-side.
func TestBackendRejectsForeignAlphabet(t *testing.T) {
	db := synth.RandomSet(alphabet.Protein, 8, 10, 40, 4501)
	addr, _ := startServer(t, db, engine.Config{Pool: master.PoolSpec{CPU: 1}})
	b, err := Dial(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	dna := seq.NewSet(alphabet.DNA)
	if err := dna.Add("q", "", []byte("ACGT")); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Search(context.Background(), dna, engine.SearchOptions{}); err == nil {
		t.Fatal("foreign alphabet accepted")
	}
}

// TestConcurrentRequestIDsStayDistinct floods one connection with many
// tiny searches of distinct shapes and checks every response landed on
// the request that asked for it (the query count is the witness).
func TestConcurrentRequestIDsStayDistinct(t *testing.T) {
	db := synth.RandomSet(alphabet.Protein, 12, 10, 60, 4601)
	addr, _ := startServer(t, db, engine.Config{Pool: master.PoolSpec{CPU: 2}, TopK: 3})
	b, err := Dial(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			n := 1 + i%4
			queries := synth.RandomSet(alphabet.Protein, n, 15, 40, int64(4700+i))
			rep, err := b.Search(context.Background(), queries, engine.SearchOptions{})
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			if len(rep.Results) != n {
				t.Errorf("request %d: %d results, want %d", i, len(rep.Results), n)
				return
			}
			for qi, r := range rep.Results {
				if r.QueryID != queries.Seqs[qi].ID {
					t.Errorf("request %d: result %d is %s, want %s (cross-request mixup)", i, qi, r.QueryID, queries.Seqs[qi].ID)
				}
			}
		}(i)
	}
	wg.Wait()
}
