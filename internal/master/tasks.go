package master

import "swdual/internal/sched"

// Task generation: the first of the master's three roles (§IV, Figure 6).
// One search task is generated per query sequence; its processing-time
// estimates come from the database volume and the workers' rates.

// PoolRates summarizes the registered workers the way the scheduling
// policies see them: pool sizes and mean throughput per pool.
type PoolRates struct {
	CPUs, GPUs       int
	CPURate, GPURate float64 // mean GCUPS per worker of the pool
}

// RatesOf gathers pool sizes and mean advertised rates from registered
// workers. A running Pool's Rates gives the same summary from measured
// rates, so schedules built from it track what the pool actually
// delivers, not what it claims. Rates only move tasks between workers;
// results are identical under any rates because every worker computes
// exact scores.
//
// Adaptation is pool-granular: the paper's scheduling model (§III) is m
// identical CPUs plus k identical GPUs, so per-worker estimates are
// averaged into one rate per pool before BuildInstance. A pool mixing
// backends of very different speeds is modeled by its mean; scheduling
// with individual per-worker rates is a different machine model
// (unrelated machines) and a ROADMAP item, not a rate-plumbing change.
func RatesOf(workers []Worker) PoolRates {
	return ratesOf(workers, func(i int) float64 { return workers[i].RateGCUPS() })
}

// ratesOf averages rate(i) over the workers of each kind.
func ratesOf(workers []Worker, rate func(i int) float64) PoolRates {
	var r PoolRates
	for i, w := range workers {
		if w.Kind() == sched.CPU {
			r.CPURate += rate(i)
			r.CPUs++
		} else {
			r.GPURate += rate(i)
			r.GPUs++
		}
	}
	if r.CPUs > 0 {
		r.CPURate /= float64(r.CPUs)
	}
	if r.GPUs > 0 {
		r.GPURate /= float64(r.GPUs)
	}
	return r
}

// BuildInstance generates the scheduling instance for comparing queries
// against a database of dbResidues total residues: one task per query,
// with CPU/GPU time estimates cells/rate (the paper's p_j and
// overlined p_j). queryLens and queryIDs must have equal length; a nil
// queryIDs leaves labels empty. With dbResidues = 1, queryLens are the
// tasks' cells: the engine prices a split query's chunk tasks, each
// against its own range of the database, that way.
func BuildInstance(dbResidues int64, queryLens []int, queryIDs []string, rates PoolRates) *sched.Instance {
	in := &sched.Instance{CPUs: rates.CPUs, GPUs: rates.GPUs}
	for i, qlen := range queryLens {
		cells := float64(qlen) * float64(dbResidues)
		t := sched.Task{ID: i}
		if queryIDs != nil {
			t.Label = queryIDs[i]
		}
		if rates.CPUs > 0 {
			t.CPUTime = cells / (rates.CPURate * 1e9)
		}
		if rates.GPUs > 0 {
			t.GPUTime = cells / (rates.GPURate * 1e9)
		}
		in.Tasks = append(in.Tasks, t)
	}
	return in
}
