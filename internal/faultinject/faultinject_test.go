package faultinject

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"swdual/internal/alphabet"
	"swdual/internal/engine"
	"swdual/internal/enginetest"
	"swdual/internal/master"
	"swdual/internal/synth"
)

// waitFor polls cond until it holds or the deadline passes — bounded
// convergence on observable state, never a fixed sleep.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func testEngine(t *testing.T, seed int64) *engine.Searcher {
	t.Helper()
	db := synth.RandomSet(alphabet.Protein, 20, 10, 60, seed)
	e, err := engine.New(db, engine.Config{Pool: master.PoolSpec{CPU: 1}, TopK: 5})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// TestIdleWrapperIsPassThrough pins the no-fault contract: a wrapper
// with no rules answers byte-identical to the inner backend and
// reports the inner facade values unchanged.
func TestIdleWrapperIsPassThrough(t *testing.T) {
	inner := testEngine(t, 101)
	b := Wrap(inner)
	queries := synth.RandomSet(alphabet.Protein, 3, 12, 40, 102)

	want, err := inner.Search(t.Context(), queries, engine.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := b.Search(t.Context(), queries, engine.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for qi := range want.Results {
		if !reflect.DeepEqual(got.Results[qi].Hits, want.Results[qi].Hits) {
			t.Fatalf("query %d: wrapped hits differ from direct hits", qi)
		}
	}
	if b.Checksum() != inner.Checksum() || b.Alphabet() != inner.Alphabet() {
		t.Fatal("wrapper changed facade values")
	}
	if got, want := b.Calls(OpSearch), uint64(1); got != want {
		t.Fatalf("Calls(OpSearch) = %d, want %d", got, want)
	}
	if b.Injected() != 0 {
		t.Fatalf("idle wrapper injected %d faults", b.Injected())
	}
}

// TestNthCallTrigger scripts "the second search fails, the rest
// succeed" and checks the schedule fires on exactly that call — the
// determinism every chaos suite builds on.
func TestNthCallTrigger(t *testing.T) {
	inner := testEngine(t, 111)
	boom := errors.New("injected fault")
	b := Wrap(inner, Rule{Op: OpSearch, After: 2, Count: 1, Fault: Fault{Err: boom}})
	queries := synth.RandomSet(alphabet.Protein, 1, 12, 40, 112)

	for call := 1; call <= 4; call++ {
		_, err := b.Search(t.Context(), queries, engine.SearchOptions{})
		if call == 2 {
			if !errors.Is(err, boom) {
				t.Fatalf("call 2: err = %v, want the injected fault", err)
			}
		} else if err != nil {
			t.Fatalf("call %d: %v", call, err)
		}
	}
	if got := b.Injected(); got != 1 {
		t.Fatalf("Injected = %d, want 1", got)
	}
	if got := b.Calls(OpSearch); got != 4 {
		t.Fatalf("Calls(OpSearch) = %d, want 4", got)
	}
}

// TestGateSynchronizedFailure parks a search at a gate, proves it is
// mid-flight via the gate's announcement (no sleeps), then releases it
// into its scripted error — the "connection died mid-stream, on cue"
// primitive the degradation suites use.
func TestGateSynchronizedFailure(t *testing.T) {
	inner := testEngine(t, 121)
	gate := NewGate()
	boom := errors.New("killed mid-stream")
	b := Wrap(inner, Rule{Op: OpSearch, Fault: Fault{Gate: gate, Err: boom}})
	queries := synth.RandomSet(alphabet.Protein, 1, 12, 40, 122)

	done := make(chan error, 1)
	go func() {
		_, err := b.Search(context.Background(), queries, engine.SearchOptions{})
		done <- err
	}()
	<-gate.Entered() // the call is provably parked
	select {
	case err := <-done:
		t.Fatalf("search returned %v before the gate released", err)
	default:
	}
	gate.Release()
	if err := <-done; !errors.Is(err, boom) {
		t.Fatalf("released search: err = %v, want the injected fault", err)
	}
}

// TestCancellationUnblocksParkedCall is the cancellation baseline: a
// call parked at a never-released gate must return the context error
// the moment its caller gives up, leaving no goroutine behind.
func TestCancellationUnblocksParkedCall(t *testing.T) {
	inner := testEngine(t, 131)
	gate := NewGate()
	b := Wrap(inner, Rule{Op: OpSearch, Fault: Fault{Gate: gate}})
	queries := synth.RandomSet(alphabet.Protein, 1, 12, 40, 132)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := b.Search(ctx, queries, engine.SearchOptions{})
		done <- err
	}()
	<-gate.Entered()
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled parked search: err = %v, want context.Canceled", err)
	}
}

// TestCloseUnblocksHangAndLeaksNothing is the goroutine-leak baseline:
// hung and parked calls all drain on Close (with engine.ErrClosed),
// and the goroutine count settles back to where it started.
func TestCloseUnblocksHangAndLeaksNothing(t *testing.T) {
	check := enginetest.LeakCheck(t)

	db := synth.RandomSet(alphabet.Protein, 20, 10, 60, 141)
	inner, err := engine.New(db, engine.Config{Pool: master.PoolSpec{CPU: 1}, TopK: 5})
	if err != nil {
		t.Fatal(err)
	}
	gate := NewGate()
	b := Wrap(inner,
		Rule{Op: OpSearch, Count: 2, Fault: Fault{Hang: true}},
		Rule{Op: OpSearch, After: 3, Fault: Fault{Gate: gate}})
	queries := synth.RandomSet(alphabet.Protein, 1, 12, 40, 142)

	const parked = 4 // 2 hung + 2 gated
	var wg sync.WaitGroup
	errs := make(chan error, parked)
	for i := 0; i < parked; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := b.Search(context.Background(), queries, engine.SearchOptions{})
			errs <- err
		}()
	}
	// The two gated calls announce themselves; the two hung calls are
	// observable through the call counter.
	<-gate.Entered()
	<-gate.Entered()
	waitFor(t, "all calls to reach the schedule", func() bool { return b.Calls(OpSearch) == parked })

	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i := 0; i < parked; i++ {
		if err := <-errs; !errors.Is(err, engine.ErrClosed) {
			t.Fatalf("call released by Close: err = %v, want engine.ErrClosed", err)
		}
	}
	check()
}
