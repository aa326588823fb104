package shard

import (
	"bytes"
	"fmt"
	"net"
	"strings"
	"testing"

	"swdual/internal/alphabet"
	"swdual/internal/engine"
	"swdual/internal/master"
	"swdual/internal/remote"
	"swdual/internal/seq"
	"swdual/internal/synth"
)

// The remote equivalence suite: a Searcher whose shards live behind
// serve processes on the wire protocol must return hits byte-identical
// to the in-process sharded Searcher AND to one unsharded engine over
// the whole database — the transport must be invisible in the results.

// startShardServer serves db.Slice(r) over the wire protocol on a
// loopback listener and returns its address. The server (engine and
// listener) is torn down at test cleanup.
func startShardServer(t *testing.T, db *seq.Set, r Range, ecfg engine.Config) string {
	t.Helper()
	eng, err := engine.New(db.Slice(r.Lo, r.Hi), ecfg)
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
	return l.Addr().String()
}

// dialShard dials a shard server with the slice checksum skew guard.
func dialShard(t *testing.T, addr string, db *seq.Set, r Range) engine.Backend {
	t.Helper()
	b, err := remote.Dial(addr, db.Slice(r.Lo, r.Hi).Checksum())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// remoteSharded assembles a Searcher whose every shard is remote.
func remoteSharded(t *testing.T, db *seq.Set, shards int, strategy Strategy, ecfg engine.Config) *Searcher {
	t.Helper()
	ranges := RangesFor(db, shards, strategy)
	backends := make([]engine.Backend, len(ranges))
	for i, r := range ranges {
		backends[i] = dialShard(t, startShardServer(t, db, r, ecfg), db, r)
	}
	s, err := WithBackends(db, strategy, ranges, backends, ecfg.TopK)
	if err != nil {
		for _, b := range backends {
			b.Close()
		}
		t.Fatal(err)
	}
	return s
}

func TestRemoteShardsMatchLocalAndUnsharded(t *testing.T) {
	const topK = 5
	queries := synth.RandomSet(alphabet.Protein, 3, 20, 90, 1101)
	ecfg := engine.Config{Pool: master.PoolSpec{CPU: 1, GPU: 1}, TopK: topK}
	// 0: every shard empty; 13, 31: prime-sized (never divide evenly).
	for _, dbSize := range []int{0, 13, 31} {
		db := synth.RandomSet(alphabet.Protein, dbSize, 10, 120, int64(3000+dbSize))
		ref, err := engine.New(db, ecfg)
		if err != nil {
			t.Fatal(err)
		}
		want := searchHits(t, ref, queries, 0)
		ref.Close()
		for _, shards := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("db=%d/shards=%d", dbSize, shards), func(t *testing.T) {
				local := localSharded(t, db, shards, BalancedResidues, ecfg)
				defer local.Close()
				rem := remoteSharded(t, db, shards, BalancedResidues, ecfg)
				defer rem.Close()
				if got := searchHits(t, rem, queries, 0); !bytes.Equal(got, want) {
					t.Fatalf("remote-sharded hits differ from unsharded engine")
				}
				if got, lw := searchHits(t, rem, queries, 0), searchHits(t, local, queries, 0); !bytes.Equal(got, lw) {
					t.Fatalf("remote-sharded hits differ from in-process sharded")
				}
				if rem.Checksum() != local.Checksum() {
					t.Fatalf("remote checksum %08x != local %08x", rem.Checksum(), local.Checksum())
				}
			})
		}
	}
}

// TestMixedLocalAndRemoteShards drives one Searcher whose backends are
// part in-process engines, part remote connections — the mix the
// facade promises to support — and proves the results still match the
// unsharded engine byte for byte.
func TestMixedLocalAndRemoteShards(t *testing.T) {
	const topK = 4
	db := synth.RandomSet(alphabet.Protein, 29, 10, 120, 3301)
	queries := synth.RandomSet(alphabet.Protein, 3, 20, 80, 3302)
	ecfg := engine.Config{Pool: master.PoolSpec{CPU: 1, GPU: 1}, TopK: topK}

	ref, err := engine.New(db, ecfg)
	if err != nil {
		t.Fatal(err)
	}
	want := searchHits(t, ref, queries, 0)
	ref.Close()

	ranges := RangesFor(db, 4, Contiguous)
	backends := make([]engine.Backend, len(ranges))
	for i, r := range ranges {
		if i%2 == 0 { // shards 0 and 2 remote, 1 and 3 in-process
			backends[i] = dialShard(t, startShardServer(t, db, r, ecfg), db, r)
		} else {
			eng, err := engine.New(db.Slice(r.Lo, r.Hi), ecfg)
			if err != nil {
				t.Fatal(err)
			}
			backends[i] = eng
		}
	}
	s, err := WithBackends(db, Contiguous, ranges, backends, topK)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := searchHits(t, s, queries, 0); !bytes.Equal(got, want) {
		t.Fatalf("mixed local+remote hits differ from unsharded engine")
	}
	st := s.Stats()
	if st.DBSequences != db.Len() || st.Prepared != 4 {
		t.Fatalf("mixed stats did not span shards: %+v", st)
	}
}

// TestRemoteTopKTieBreakAcrossShardBoundaries: identical sequences tie
// on score across every remote shard boundary; the gathered order must
// still be ascending global index, exactly as the unsharded pass
// reports it — over the wire, SeqIndex lifting included.
func TestRemoteTopKTieBreakAcrossShardBoundaries(t *testing.T) {
	const n, topK = 12, 8
	db := seq.NewSet(alphabet.Protein)
	res := strings.Repeat("MKWVTFISLL", 3)
	for i := 0; i < n; i++ {
		if err := db.Add(fmt.Sprintf("dup-%02d", i), "", []byte(res)); err != nil {
			t.Fatal(err)
		}
	}
	queries := seq.NewSet(alphabet.Protein)
	if err := queries.Add("q", "", []byte(res)); err != nil {
		t.Fatal(err)
	}
	ecfg := engine.Config{Pool: master.PoolSpec{CPU: 1, GPU: 1}, TopK: topK}
	ref, err := engine.New(db, ecfg)
	if err != nil {
		t.Fatal(err)
	}
	want := searchHits(t, ref, queries, 0)
	ref.Close()
	for _, shards := range []int{2, 3, 5} {
		s := remoteSharded(t, db, shards, Contiguous, ecfg)
		if got := searchHits(t, s, queries, 0); !bytes.Equal(got, want) {
			t.Fatalf("%d remote shards: tie-broken hits differ from unsharded engine", shards)
		}
		s.Close()
	}
}

// TestWithBackendsRejectsChecksumSkew: a backend serving different
// sequences than the coordinator's slice must be rejected at assembly,
// before any query is scattered.
func TestWithBackendsRejectsChecksumSkew(t *testing.T) {
	db := synth.RandomSet(alphabet.Protein, 10, 10, 60, 3401)
	skewed := db.Clone()
	skewed.Seqs[7].Residues[0] ^= 1 // one residue differs, in shard 1's range

	ranges := RangesFor(db, 2, Contiguous)
	ecfg := engine.Config{Pool: master.PoolSpec{CPU: 1}, TopK: 3}
	backends := make([]engine.Backend, len(ranges))
	for i, r := range ranges {
		// Servers load the skewed database; the coordinator holds db.
		eng, err := engine.New(skewed.Slice(r.Lo, r.Hi), ecfg)
		if err != nil {
			t.Fatal(err)
		}
		backends[i] = eng
	}
	defer func() {
		for _, b := range backends {
			b.Close()
		}
	}()
	if _, err := WithBackends(db, Contiguous, ranges, backends, 3); err == nil {
		t.Fatal("checksum skew accepted")
	} else if !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("skew error does not name the checksum: %v", err)
	}
}

// TestRemoteMixedPoolShardsMatchUnsharded runs the transport-equivalence
// suite over mixed pools: shard servers whose engines mix CPU and GPU
// workers in another ratio (with measured rates drifting from the
// advertised seeds over repeated waves) must stay byte-identical to one
// cpu=1,gpu=1 unsharded engine, and their per-worker observed rates
// must cross the wire into the coordinator's aggregated Stats.
func TestRemoteMixedPoolShardsMatchUnsharded(t *testing.T) {
	const topK = 5
	db := synth.RandomSet(alphabet.Protein, 26, 10, 120, 3207)
	queries := synth.RandomSet(alphabet.Protein, 3, 20, 90, 1103)

	ref, err := engine.New(db, engine.Config{Pool: master.PoolSpec{CPU: 1, GPU: 1}, TopK: topK})
	if err != nil {
		t.Fatal(err)
	}
	want := searchHits(t, ref, queries, 0)
	ref.Close()

	spec := master.PoolSpec{CPU: 2, GPU: 1}
	const shards = 2
	s := remoteSharded(t, db, shards, Contiguous, engine.Config{Pool: spec, TopK: topK})
	defer s.Close()
	for round := 0; round < 2; round++ {
		if got := searchHits(t, s, queries, 0); !bytes.Equal(got, want) {
			t.Fatalf("remote mixed-pool round %d: hits differ from unsharded", round)
		}
	}

	st := s.Stats()
	if len(st.Workers) != shards*spec.Total() {
		t.Fatalf("%d worker rates over the wire for %d shards of %d workers", len(st.Workers), shards, spec.Total())
	}
	var observed uint64
	for _, w := range st.Workers {
		if !strings.HasPrefix(w.Name, "shard") {
			t.Fatalf("worker rate %q not shard-qualified", w.Name)
		}
		if w.AdvertisedGCUPS <= 0 {
			t.Fatalf("worker %s advertises %.3f GCUPS over the wire", w.Name, w.AdvertisedGCUPS)
		}
		observed += w.Tasks
	}
	if want := uint64(2 * queries.Len() * shards); observed != want {
		t.Fatalf("remote workers observed %d tasks, want %d", observed, want)
	}
}
