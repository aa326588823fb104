// Package enginetest cross-checks every alignment engine against the
// scalar oracle (its tests), and holds LeakCheck, the module's one
// goroutine-leak check. This file imports nothing of the module, so any
// package's internal tests can call LeakCheck.
package enginetest

import (
	"runtime"
	"testing"
	"time"
)

// LeakCheck reads the goroutine count once two readings a millisecond
// apart agree, and returns the check to run after closing what must
// stop: it fails t unless the count falls back to that within 10 s,
// printing every goroutine's stack.
func LeakCheck(t testing.TB) func() {
	base := -1
	for n, i := runtime.NumGoroutine(), 0; n != base && i < 1000; n, i = runtime.NumGoroutine(), i+1 {
		base = n
		time.Sleep(time.Millisecond)
	}
	return func() {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !t.Failed() && runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				t.Fatalf("%d goroutines, %d before:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
			}
		}
	}
}
