package remote

import (
	"context"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"swdual/internal/alphabet"
	"swdual/internal/engine"
	"swdual/internal/master"
	"swdual/internal/synth"
	"swdual/internal/wire"
)

// Regression: Dial used net.Dial with no deadline, so a server that
// accepted the TCP connection but never answered the handshake — a hung
// process, a half-configured load balancer — blocked the caller
// forever. DialTimeout must bound the whole dial, TCP connect and
// handshake both.

// silentListener accepts connections and never writes a byte.
func silentListener(t *testing.T) (addr string, stop func()) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var conns []net.Conn
	go func() {
		for {
			nc, err := l.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, nc)
			mu.Unlock()
		}
	}()
	return l.Addr().String(), func() {
		l.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, nc := range conns {
			nc.Close()
		}
	}
}

func TestDialTimeoutOnSilentServer(t *testing.T) {
	addr, stop := silentListener(t)
	defer stop()

	start := time.Now()
	_, err := DialTimeout(addr, 0, 300*time.Millisecond)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("dial against a silent server succeeded")
	}
	if elapsed > 5*time.Second {
		t.Fatalf("dial took %v — the timeout did not bound the handshake", elapsed)
	}
	if !strings.Contains(err.Error(), addr) {
		t.Fatalf("dial error does not name the address: %v", err)
	}
}

func TestDialTimeoutZeroUsesDefault(t *testing.T) {
	// A non-positive timeout must fall back to the default rather than
	// dial with an already-expired deadline.
	addr, stop := silentListener(t)
	stop() // close immediately: connection refused is instant
	if _, err := DialTimeout(addr, 0, -1); err == nil {
		t.Fatal("dial to a closed listener succeeded")
	}
}

func TestDialTimeoutLeavesConnectionUndeadlined(t *testing.T) {
	// The handshake deadline must be cleared once the backend is up: a
	// connection that kept the dial deadline would kill the first
	// search slower than the dial budget. Pin a search well past the
	// dial timeout and require it to succeed.
	db := synth.RandomSet(alphabet.Protein, 8, 10, 40, 5901)
	queries := synth.RandomSet(alphabet.Protein, 1, 20, 30, 5902)
	gw := newGateWorker()
	srv := startKillableServer(t, db, engine.Config{
		Workers: []master.Worker{gw}, TopK: 3, Policy: master.PolicySelfScheduling,
	})
	b, err := DialTimeout(srv.addr(), db.Checksum(), 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	go func() {
		<-gw.started
		time.Sleep(600 * time.Millisecond) // well past the dial budget
		close(gw.release)
	}()
	if _, err := b.Search(context.Background(), queries, engine.SearchOptions{}); err != nil {
		t.Fatalf("search slower than the dial timeout failed: %v", err)
	}
}

// scriptedServer accepts one connection, reads the client's Hello, and
// answers it with reply; a later StatsRequest gets an empty
// StatsResponse. It yields the Hello and then every later frame the
// client sends, as the server saw them.
func scriptedServer(t *testing.T, reply any) (addr string, frames <-chan any) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	seen := make(chan any, 8) // a dial and one call send two frames; room to spare so the server never blocks
	go func() {
		defer close(seen)
		nc, err := l.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		c := wire.NewConn(nc)
		for first := true; ; first = false {
			msg, err := c.Recv()
			if err != nil {
				return
			}
			seen <- msg
			if first {
				if err := c.Send(reply); err != nil {
					return
				}
			} else if sr, ok := msg.(*wire.StatsRequest); ok {
				c.Send(&wire.StatsResponse{ID: sr.ID, DBChecksum: 0xfeed})
			}
		}
	}()
	return l.Addr().String(), seen
}

// TestDialIsOneRoundTrip plays the server by hand: a dial is exactly
// Hello → Welcome — the Welcome's checksum and alphabet name describe
// the database, nothing else is fetched — so the next frame the server
// sees is the caller's own first call.
func TestDialIsOneRoundTrip(t *testing.T) {
	addr, frames := scriptedServer(t, &wire.Welcome{Version: wire.Version, DBChecksum: 0xfeed, Alphabet: alphabet.DNA.Name()})
	b, err := DialTimeout(addr, 0xfeed, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if b.Alphabet() != alphabet.DNA || b.Checksum() != 0xfeed {
		t.Fatalf("backend describes %s/%08x, the Welcome said %s/%08x", b.Alphabet().Name(), b.Checksum(), alphabet.DNA.Name(), 0xfeed)
	}
	first := <-frames
	if hello, ok := first.(*wire.Hello); !ok || hello.Version != wire.Version || hello.DBChecksum != 0xfeed {
		t.Fatalf("first frame %#v, want the Hello carrying the version and the expected checksum", first)
	}
	if st := b.Stats(); st.DBChecksum != 0xfeed {
		t.Fatalf("Stats over the session: %+v, want the scripted server's answer", st)
	}
	second := <-frames
	if _, ok := second.(*wire.StatsRequest); !ok {
		t.Fatalf("second frame the server saw is %#v, want the caller's own StatsRequest", second)
	}
}

// TestDialRefusesBadWelcome: a server whose Welcome names an alphabet
// this build does not know, or a database other than the expected one,
// is refused at the dial — before any query could be encoded for it.
func TestDialRefusesBadWelcome(t *testing.T) {
	for _, c := range []struct {
		name    string
		welcome wire.Welcome
		want    string
	}{
		{"unknown alphabet", wire.Welcome{Version: wire.Version, DBChecksum: 0xfeed, Alphabet: "klingon"}, `unknown server alphabet "klingon"`},
		{"no alphabet", wire.Welcome{Version: wire.Version, DBChecksum: 0xfeed}, `unknown server alphabet ""`},
		{"checksum mismatch", wire.Welcome{Version: wire.Version, DBChecksum: 0xbeef, Alphabet: alphabet.Protein.Name()}, "checksum 0000beef, want 0000feed"},
	} {
		addr, _ := scriptedServer(t, &c.welcome)
		b, err := DialTimeout(addr, 0xfeed, 5*time.Second)
		if err == nil {
			b.Close()
			t.Fatalf("%s: dial succeeded", c.name)
		}
		if !strings.Contains(err.Error(), c.want) || !strings.Contains(err.Error(), addr) {
			t.Fatalf("%s: error %q, want it to name the address and say %q", c.name, err, c.want)
		}
	}
}
