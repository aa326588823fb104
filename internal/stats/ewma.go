package stats

import "sync"

// ewmaAlpha weights the newest observation: recent enough to track a
// slowing service or worker, smooth enough not to chase single-sample
// jitter. 0.3 forgets a 100× mis-advertised seed to within 5% in ~21
// observations while smoothing per-observation jitter by ~3×.
const ewmaAlpha = 0.3

// EWMA is an exponentially weighted moving average, safe for concurrent
// Observe and Snapshot calls. Two readers share it: the worker rate
// estimate (GCUPS per completed task, seeded with the advertised rate)
// and the gateway's Retry-After ("how long until a queue slot frees
// up?", over nanoseconds).
//
// The zero value is unseeded: its first observation becomes the mean.
// NewEWMA seeds it instead, and the first observation blends with the
// seed like every later one.
type EWMA struct {
	mu     sync.Mutex
	mean   float64
	n      uint64
	seeded bool
}

// NewEWMA returns an average whose value is seed until, and blended
// into, the first observation.
func NewEWMA(seed float64) *EWMA {
	return &EWMA{mean: seed, seeded: true}
}

// Observe folds x into the average. Non-positive observations are
// ignored: a clock that didn't advance or a task with no volume carries
// no signal.
func (e *EWMA) Observe(x float64) {
	if x <= 0 {
		return
	}
	e.mu.Lock()
	if e.n == 0 && !e.seeded {
		e.mean = x
	} else {
		e.mean = ewmaAlpha*x + (1-ewmaAlpha)*e.mean
	}
	e.n++
	e.mu.Unlock()
}

// Snapshot returns the current mean (the seed, or 0 unseeded, before
// any observation) and how many observations produced it.
func (e *EWMA) Snapshot() (mean float64, n uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.mean, e.n
}
