package replica

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"swdual/internal/alphabet"
	"swdual/internal/engine"
	"swdual/internal/enginetest"
	"swdual/internal/faultinject"
	"swdual/internal/master"
	"swdual/internal/remote"
	"swdual/internal/seq"
	"swdual/internal/synth"
)

// faultedSet builds a two-replica set over faultinject wrappers, one
// per in-process engine, so exhaustion scenarios are scripted instead
// of killed into existence.
func faultedSet(t *testing.T, name string, index int) (*Set, []*faultinject.Backend, *seq.Set) {
	t.Helper()
	db := synth.RandomSet(alphabet.Protein, 12, 10, 60, 7401)
	wrappers := make([]*faultinject.Backend, 2)
	reps := make([]Replica, 2)
	for i := range wrappers {
		eng, err := engine.New(db, engine.Config{Pool: master.PoolSpec{CPU: 1}, TopK: 3})
		if err != nil {
			t.Fatal(err)
		}
		wrappers[i] = faultinject.Wrap(eng)
		reps[i] = Replica{Backend: wrappers[i]}
		t.Cleanup(func() { wrappers[i].Close() })
	}
	set, err := NewSet(name, db.Checksum(), reps, Config{Index: index})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { set.Close() })
	return set, wrappers, db
}

// TestIdleFaultInjectKeepsReplicaByteIdentical is the replica-layer
// no-fault equivalence bar: a set whose replicas sit behind idle
// faultinject wrappers answers byte-identical to a plain engine, with
// nothing injected and nothing counted.
func TestIdleFaultInjectKeepsReplicaByteIdentical(t *testing.T) {
	set, wrappers, db := faultedSet(t, "idle", 0)
	queries := synth.RandomSet(alphabet.Protein, 3, 20, 50, 7405)
	ref, err := engine.New(db, engine.Config{Pool: master.PoolSpec{CPU: 1}, TopK: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := searchHits(t, ref, queries, 0)
	ref.Close()
	if got := searchHits(t, set, queries, 0); !bytes.Equal(got, want) {
		t.Fatal("replicated hits behind idle fault injectors differ from the reference engine")
	}
	for i, w := range wrappers {
		if n := w.Injected(); n != 0 {
			t.Fatalf("wrapper %d injected %d faults with an empty schedule", i, n)
		}
	}
	if st := set.Stats(); st.FailedOver != 0 || st.DegradedSearches != 0 {
		t.Fatalf("idle set stats %+v", st)
	}
}

// TestExhaustedSetReturnsTypedRangeError scripts both replicas to die
// with a lost connection and pins the shape of the resulting error:
// errors.As-detectable, carrying the range label, the coordinator's
// shard index, the replica count and the last cause — everything a
// degraded coordinator needs without parsing strings.
func TestExhaustedSetReturnsTypedRangeError(t *testing.T) {
	check := enginetest.LeakCheck(t)
	set, wrappers, _ := faultedSet(t, "shard 3 [30,40)", 3)
	queries := synth.RandomSet(alphabet.Protein, 2, 20, 50, 7402)
	for i, w := range wrappers {
		w.SetRules(faultinject.Rule{Op: faultinject.OpSearch, Fault: faultinject.Fault{
			Err: fmt.Errorf("replica %d dead: %w", i, remote.ErrConnectionLost),
		}})
	}

	_, err := set.Search(context.Background(), queries, engine.SearchOptions{})
	if err == nil {
		t.Fatal("search succeeded with every replica scripted dead")
	}
	var re *ErrRangeUnavailable
	if !errors.As(err, &re) {
		t.Fatalf("exhaustion error is not typed: %v", err)
	}
	if re.Range != "shard 3 [30,40)" || re.Index != 3 || re.Replicas != 2 {
		t.Fatalf("typed error %+v", re)
	}
	if !strings.Contains(re.Cause, "dead") || !strings.Contains(re.Cause, "connection lost") {
		t.Fatalf("Cause %q does not carry the last failure", re.Cause)
	}
	if !re.RangeUnavailable() {
		t.Fatal("marker method returned false")
	}
	if errors.Is(err, engine.ErrClosed) {
		t.Fatalf("exhaustion error claims the set is closed: %v", err)
	}
	// Both replicas were really tried — exhaustion, not a shortcut.
	for i, w := range wrappers {
		if n := w.Calls(faultinject.OpSearch); n != 1 {
			t.Fatalf("replica %d saw %d searches, want 1", i, n)
		}
	}
	set.Close()
	check()
}

// TestErrClosedCauseNeverLeaks scripts both replicas to fail with
// engine.ErrClosed — a dying replica's last words — and requires the
// set's exhaustion error to flatten it into Cause: errors.Is must not
// see ErrClosed, or a coordinator would conclude IT was closed and
// pass the sentinel to its own callers.
func TestErrClosedCauseNeverLeaks(t *testing.T) {
	set, wrappers, _ := faultedSet(t, "shard 0 [0,12)", 0)
	queries := synth.RandomSet(alphabet.Protein, 2, 20, 50, 7403)
	for _, w := range wrappers {
		w.SetRules(faultinject.Rule{Op: faultinject.OpSearch, Fault: faultinject.Fault{Err: engine.ErrClosed}})
	}
	_, err := set.Search(context.Background(), queries, engine.SearchOptions{})
	if err == nil {
		t.Fatal("search succeeded with every replica scripted closed")
	}
	var re *ErrRangeUnavailable
	if !errors.As(err, &re) {
		t.Fatalf("exhaustion error is not typed: %v", err)
	}
	if errors.Is(err, engine.ErrClosed) {
		t.Fatalf("ErrClosed leaked through the exhaustion error: %v", err)
	}
	if !strings.Contains(re.Cause, "closed") {
		t.Fatalf("Cause %q lost the underlying failure", re.Cause)
	}
}

// TestParkedSearchHonorsCancellation parks a search at a gate and
// cancels the caller: the search must return promptly with the
// caller's context error, never hanging on the schedule, and the gate
// must not leak the parked goroutine.
func TestParkedSearchHonorsCancellation(t *testing.T) {
	check := enginetest.LeakCheck(t)
	set, wrappers, _ := faultedSet(t, "shard 0 [0,12)", 0)
	queries := synth.RandomSet(alphabet.Protein, 2, 20, 50, 7404)
	gate := faultinject.NewGate()
	for _, w := range wrappers {
		w.SetRules(faultinject.Rule{Op: faultinject.OpSearch, Fault: faultinject.Fault{Gate: gate}})
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := set.Search(ctx, queries, engine.SearchOptions{})
		done <- err
	}()
	<-gate.Entered() // the search is provably parked
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled parked search returned %v", err)
	}
	gate.Release()
	set.Close()
	check()
}
