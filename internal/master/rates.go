package master

import (
	"time"

	"swdual/internal/stats"
)

// Rate estimation: the paper's scheduler is only as good as its
// processing-time estimates, and those come from worker throughput. The
// advertised rates (Table II calibration) are honest for the paper's
// exact testbed but systematically skew schedules on any other pool —
// a different engine, a loaded host, a mis-calibrated GPU. A
// RateEstimator replaces the advertised constant with what the worker
// actually delivered: every completed task folds its measured
// cells/second into an exponentially weighted moving average, seeded by
// the advertised rate so scheduling is sensible before the first
// observation. Rates feed task-time estimates only — they move tasks
// between workers, never change what a worker computes — so search
// results stay byte-identical whatever the estimates say.

// RateEstimator tracks one worker's live throughput in GCUPS. It is
// safe for concurrent use: workers observe from their pool goroutine
// while the dispatcher snapshots rates for the next scheduling wave.
//
// Workers embed a *RateEstimator to satisfy the observation side of the
// Worker interface (ObserveTask, MeasuredRateGCUPS, ObservedTasks).
type RateEstimator struct {
	ewma *stats.EWMA
}

// NewRateEstimator seeds an estimator with the worker's advertised
// rate; until the first ObserveTask, MeasuredRateGCUPS returns the seed.
func NewRateEstimator(seedGCUPS float64) *RateEstimator {
	return &RateEstimator{ewma: stats.NewEWMA(seedGCUPS)}
}

// ObserveTask folds one completed task — cells of dynamic-programming
// volume in elapsed wall time — into the estimate. Tasks with no volume
// or no measurable duration are ignored: they carry no rate signal.
func (e *RateEstimator) ObserveTask(cells int64, elapsed time.Duration) {
	if cells <= 0 || elapsed <= 0 {
		return
	}
	e.ewma.Observe(float64(cells) / elapsed.Seconds() / 1e9)
}

// MeasuredRateGCUPS returns the live estimate: the advertised seed
// before any observation, the EWMA over measured task rates after.
func (e *RateEstimator) MeasuredRateGCUPS() float64 {
	rate, _ := e.ewma.Snapshot()
	return rate
}

// ObservedTasks returns how many completed tasks the estimate has
// absorbed (0 means the estimate is still the advertised seed).
func (e *RateEstimator) ObservedTasks() uint64 {
	_, n := e.ewma.Snapshot()
	return n
}
