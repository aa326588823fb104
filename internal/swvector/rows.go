package swvector

import "sync"

// The striped kernels are called once per database sequence, and each
// call needs three segLen-sized DP rows (H store/load and E). Taking
// them from the allocator per subject is where a vectorized database
// search leaks throughput — SWIPE and Farrar's striped implementation
// both keep these rows resident — so the kernels draw them from a
// sync.Pool instead: one Get/Put pair per kernel invocation, zero
// allocations in steady state.

// resizeCleared returns a zeroed slice of length n, reusing buf's
// backing array when it is large enough — the one grow-or-clear policy
// every pooled buffer in this package shares.
func resizeCleared[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// rowScratch is one pooled backing array for the uint64 SWAR kernels.
type rowScratch struct{ buf []uint64 }

var rowPool = sync.Pool{New: func() any { return new(rowScratch) }}

// getRows returns a pooled scratch and three zeroed segLen-sized rows
// carved from its backing array. Callers must putRows the scratch when
// the kernel returns; the row slices die with it.
func getRows(segLen int) (sc *rowScratch, hStore, hLoad, vE []uint64) {
	sc = rowPool.Get().(*rowScratch)
	sc.buf = resizeCleared(sc.buf, 3*segLen)
	return sc, sc.buf[0:segLen:segLen], sc.buf[segLen : 2*segLen : 2*segLen], sc.buf[2*segLen : 3*segLen]
}

func putRows(sc *rowScratch) { rowPool.Put(sc) }
