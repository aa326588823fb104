package master

import (
	"time"

	"swdual/internal/cudasw"
	"swdual/internal/sched"
	"swdual/internal/scoring"
	"swdual/internal/seq"
	"swdual/internal/sw"
)

// GPUWorker is a worker backed by a CUDASW++-style engine on a simulated
// device. It behaves exactly like an EngineWorker but additionally
// reports the simulated device seconds of each task, so timing analyses
// can use the device model instead of host wall time.
type GPUWorker struct {
	name   string
	engine *cudasw.Engine
	rate   float64
	topK   int
}

// NewGPUWorker builds a GPU worker. rateGCUPS is the advertised
// throughput (the calibrated Table II rate for a C2050) that seeds a
// Pool's measured-rate estimate.
func NewGPUWorker(name string, engine *cudasw.Engine, rateGCUPS float64, topK int) *GPUWorker {
	if topK <= 0 {
		topK = 10
	}
	return &GPUWorker{name: name, engine: engine, rate: rateGCUPS, topK: topK}
}

// Name implements Worker.
func (w *GPUWorker) Name() string { return w.name }

// Kind implements Worker.
func (w *GPUWorker) Kind() sched.Kind { return sched.GPU }

// RateGCUPS implements Worker.
func (w *GPUWorker) RateGCUPS() float64 { return w.rate }

// Engine returns the underlying simulated-GPU engine.
func (w *GPUWorker) Engine() *cudasw.Engine { return w.engine }

// Run implements Worker.
func (w *GPUWorker) Run(queryIndex int, query *seq.Sequence, db *seq.Set) QueryResult {
	start := time.Now()
	scores, stats := w.engine.Search(query.Residues, db)
	elapsed := time.Since(start)
	return QueryResult{
		QueryIndex: queryIndex,
		QueryID:    query.ID,
		Hits:       TopHits(db, scores, w.topK),
		Worker:     w.name,
		WorkerKind: sched.GPU,
		Elapsed:    elapsed,
		SimSeconds: stats.TotalSec,
		Cells:      sw.SetCells(query.Len(), db),
	}
}

// RunProfiled implements ProfiledWorker by running the task as Run does.
func (w *GPUWorker) RunProfiled(queryIndex int, query *seq.Sequence, _ *scoring.QueryProfiles, db *seq.Set) QueryResult {
	return w.Run(queryIndex, query, db)
}
