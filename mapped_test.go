package swdual_test

import (
	"context"
	"net"
	"path/filepath"
	"testing"

	"swdual"
)

// saveSWDB generates a deterministic corpus and writes it as .swdb,
// returning the path and the in-memory original.
func saveSWDB(t *testing.T, preset string, scale int) (string, *swdual.Database) {
	t.Helper()
	db, err := swdual.GenerateDatabase(preset, scale)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "db.swdb")
	if err := db.SaveBinary(path); err != nil {
		t.Fatal(err)
	}
	return path, db
}

func sameSequences(t *testing.T, label string, got, want *swdual.Database) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d sequences, want %d", label, got.Len(), want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		gid, gres := got.Sequence(i)
		wid, wres := want.Sequence(i)
		if gid != wid || gres != wres {
			t.Fatalf("%s: sequence %d differs", label, i)
		}
	}
}

func sameReports(t *testing.T, label string, got, want *swdual.Report) {
	t.Helper()
	if len(got.Results) != len(want.Results) {
		t.Fatalf("%s: %d results, want %d", label, len(got.Results), len(want.Results))
	}
	for qi := range got.Results {
		a, b := got.Results[qi].Hits, want.Results[qi].Hits
		if len(a) != len(b) {
			t.Fatalf("%s query %d: %d hits vs %d", label, qi, len(a), len(b))
		}
		for hi := range a {
			if a[hi] != b[hi] {
				t.Fatalf("%s query %d hit %d: %+v vs %+v", label, qi, hi, a[hi], b[hi])
			}
		}
	}
}

// TestOpenDatabaseMapped pins the public mapping contract: a .swdb path
// opens as a mapped database identical sequence-for-sequence to the
// in-memory set it was written from, reports its mapping size, verifies eagerly on demand,
// and closes idempotently; a FASTA path through the same entry point is
// heap-backed and Close is a no-op.
func TestOpenDatabaseMapped(t *testing.T) {
	path, orig := saveSWDB(t, "Ensembl Rat Proteins", 4000)
	m, err := swdual.OpenDatabase(path)
	if err != nil {
		t.Fatal(err)
	}
	if m.MappedBytes() <= 0 {
		t.Fatal("mapped database reports no mapped bytes")
	}
	if m.Len() != orig.Len() || m.TotalResidues() != orig.TotalResidues() {
		t.Fatalf("mapped %d/%d, want %d/%d", m.Len(), m.TotalResidues(), orig.Len(), orig.TotalResidues())
	}
	sameSequences(t, "mapped", m, orig)
	if err := m.VerifyMapped(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if m.MappedBytes() != 0 {
		t.Fatal("MappedBytes nonzero after Close")
	}

	fa := filepath.Join(t.TempDir(), "db.fasta")
	if err := orig.SaveFASTA(fa); err != nil {
		t.Fatal(err)
	}
	hdb, err := swdual.OpenDatabase(fa)
	if err != nil {
		t.Fatal(err)
	}
	if hdb.MappedBytes() != 0 {
		t.Fatal("FASTA database reports mapped bytes")
	}
	if err := hdb.Close(); err != nil {
		t.Fatalf("heap Close: %v", err)
	}
}

// TestMappedSearchMatchesHeap is the end-to-end equivalence suite: the
// in-memory set and the .swdb written from it, searched from the
// mapping — unsharded and
// remote-sharded with every server mapping the file — must produce
// byte-identical hits.
func TestMappedSearchMatchesHeap(t *testing.T) {
	path, heap := saveSWDB(t, "UniProt", 20000)
	queries, err := swdual.GenerateQueries("standard", 400)
	if err != nil {
		t.Fatal(err)
	}
	opt := swdual.Options{Pool: "cpu=2", TopK: 5, ShardSplit: "balanced"}

	want, err := swdual.Search(heap, queries, opt)
	if err != nil {
		t.Fatal(err)
	}

	mdb, err := swdual.OpenDatabase(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mdb.Close()

	// Unsharded engine directly over the mapping.
	got, err := swdual.Search(mdb, queries, opt)
	if err != nil {
		t.Fatal(err)
	}
	sameReports(t, "mapped unsharded", got, want)

	// Remote scatter/gather: each shard server opens its own mapping of
	// the same file — the one-copy-per-host deployment in miniature —
	// and the coordinator's merged hits must still match the heap run.
	const shardCount = 2
	addrs := make([]string, shardCount)
	for i := 0; i < shardCount; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		addrs[i] = l.Addr().String()
		srvDB, err := swdual.OpenDatabase(path)
		if err != nil {
			t.Fatal(err)
		}
		defer srvDB.Close()
		go func(i int, l net.Listener, db *swdual.Database) {
			swdual.ServeShard(l, db, i, shardCount, opt)
		}(i, l, srvDB)
	}
	coordOpt := opt
	for _, addr := range addrs {
		coordOpt.ReplicaShards = append(coordOpt.ReplicaShards, []string{addr})
	}
	s, err := swdual.NewSearcher(mdb, coordOpt)
	if err != nil {
		t.Fatal(err)
	}
	got, err = s.Search(context.Background(), queries, swdual.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sameReports(t, "mapped remote-sharded", got, want)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSaveOverMappedFile saves a mapped database over the very file it
// is mapped from, in both formats. Truncating that file in place would
// fault inside the writer as it reads residues out of the mapping; the
// save must instead leave a whole file that reopens with the same
// checksum and sequences.
func TestSaveOverMappedFile(t *testing.T) {
	path, orig := saveSWDB(t, "Ensembl Rat Proteins", 4000)
	db, err := swdual.OpenDatabase(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.SaveBinary(path); err != nil {
		t.Fatal(err)
	}
	// The old mapping still reads the old, unlinked file.
	sameSequences(t, "mapping after save", db, orig)

	again, err := swdual.OpenDatabase(path)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if err := again.VerifyMapped(); err != nil {
		t.Fatal(err)
	}
	if got, want := again.Set().Checksum(), orig.Set().Checksum(); got != want {
		t.Fatalf("checksum %08x after saving over the mapping, want %08x", got, want)
	}
	sameSequences(t, "reopened", again, orig)

	if err := again.SaveFASTA(path); err != nil {
		t.Fatal(err)
	}
	fa, err := swdual.LoadFASTA(path)
	if err != nil {
		t.Fatal(err)
	}
	sameSequences(t, "FASTA saved over the mapping", fa, orig)

	if leftover, _ := filepath.Glob(path + ".*"); len(leftover) != 0 {
		t.Fatalf("temporary files left behind: %v", leftover)
	}
}
