package stats

import (
	"sync"
	"time"
)

// latencyEWMAAlpha weights the newest observation in a LatencyEWMA,
// mirroring the worker rate estimator's constant: recent enough to
// track a slowing service, smooth enough not to chase single-sample
// jitter.
const latencyEWMAAlpha = 0.3

// LatencyEWMA is an exponentially weighted moving average over
// wall-clock durations — the master.RateEstimator shape applied to
// latency. The replica hedging trigger and the gateway's Retry-After
// estimate both read it: one asks "is this search running long?", the
// other "how long until a queue slot frees up?". The zero value is
// ready to use; it is safe for concurrent Observe and Snapshot calls.
type LatencyEWMA struct {
	mu   sync.Mutex
	mean time.Duration
	n    uint64
}

// Observe folds one completed operation's duration into the average.
// Non-positive durations are ignored: a clock that didn't advance
// carries no latency information.
func (l *LatencyEWMA) Observe(d time.Duration) {
	if d <= 0 {
		return
	}
	l.mu.Lock()
	if l.n == 0 {
		l.mean = d
	} else {
		l.mean = time.Duration(latencyEWMAAlpha*float64(d) + (1-latencyEWMAAlpha)*float64(l.mean))
	}
	l.n++
	l.mu.Unlock()
}

// Snapshot returns the current mean and how many observations produced
// it (0 observations means the mean is meaningless — callers gate on n
// before trusting it).
func (l *LatencyEWMA) Snapshot() (mean time.Duration, n uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.mean, l.n
}
