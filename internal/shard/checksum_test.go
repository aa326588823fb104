package shard

import (
	"testing"

	"swdual/internal/alphabet"
	"swdual/internal/engine"
	"swdual/internal/master"
	"swdual/internal/seq"
)

// TestDBChecksumUnified pins the module-wide database fingerprint. Every
// subsystem that compares databases — the persistent engine's serve-mode
// handshake and the sharded coordinator's skew guard — must report the
// one seq.Set checksum; the pinned constant catches any of them drifting
// to its own definition (the bug this test retired: three hand-rolled
// CRC loops).
func TestDBChecksumUnified(t *testing.T) {
	db := seq.NewSet(alphabet.Protein)
	for _, s := range []struct{ id, res string }{
		{"sp|P1", "MKWVTFISLLFLFSSAYS"},
		{"sp|P2", "ARNDCQEGHILKMFPSTWYV"},
		{"sp|P3", "GGGGGAAAAA"},
	} {
		if err := db.Add(s.id, "", []byte(s.res)); err != nil {
			t.Fatal(err)
		}
	}
	const pinned = uint32(0xed11face)
	if got := db.Checksum(); got != pinned {
		t.Fatalf("seq.Set.Checksum = %08x, pinned %08x (fingerprint definition changed — old serve clients and shard servers will be rejected)", got, pinned)
	}
	eng, err := engine.New(db, engine.Config{Pool: master.PoolSpec{CPU: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if got := eng.Checksum(); got != pinned {
		t.Fatalf("engine.Searcher.Checksum = %08x, pinned %08x", got, pinned)
	}
	sh := localSharded(t, db, 2, Contiguous, engine.Config{Pool: master.PoolSpec{CPU: 1}})
	defer sh.Close()
	if got := sh.Checksum(); got != pinned {
		t.Fatalf("shard.Searcher.Checksum = %08x, pinned %08x", got, pinned)
	}
}
