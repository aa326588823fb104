package engine

import (
	"net"
	"strings"
	"testing"

	"swdual/internal/alphabet"
	"swdual/internal/master"
	"swdual/internal/synth"
	"swdual/internal/wire"
)

// TestServeRejectsOldProtocolVersion: every wire.Version bump changes a
// frame layout, so a peer one version behind (today version 9, whose
// StatsResponse held the counters as fixed fields) must be turned away
// at the handshake — with an error that names the version — instead of
// misreading a frame mid-session.
func TestServeRejectsOldProtocolVersion(t *testing.T) {
	db := synth.RandomSet(alphabet.Protein, 10, 10, 50, 61)
	s, err := New(db, Config{Pool: master.PoolSpec{CPU: 1}, TopK: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go Serve(l, s)
	nc, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	c := wire.NewConn(nc)
	if err := c.Send(&wire.Hello{Version: wire.Version - 1, Name: "stale"}); err != nil {
		t.Fatal(err)
	}
	msg, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	em, ok := msg.(*wire.ErrorMsg)
	if !ok {
		t.Fatalf("expected ErrorMsg for version %d, got %T", wire.Version-1, msg)
	}
	if !strings.Contains(em.Text, "version") {
		t.Fatalf("rejection does not mention the version: %q", em.Text)
	}
}
