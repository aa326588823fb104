package sched

import (
	"fmt"
	"math"
	"sort"
)

// DualResult reports the outcome of one dual-approximation step.
type DualResult struct {
	// OK is false when the step proved no schedule of length <= λ exists.
	OK       bool
	Schedule *Schedule
}

// DualStep runs one step of the paper's §III algorithm for guess λ:
//
//  1. Tasks that fit neither pool under λ make the answer "NO".
//  2. Tasks with p_j > λ are forced to the GPUs, tasks with
//     overline{p_j} > λ are forced to the CPUs.
//  3. Remaining tasks are sorted by decreasing p_j/overline{p_j} and the
//     greedy minimization knapsack fills the GPUs until their
//     computational area first exceeds kλ (the overshooting task is the
//     paper's j_last).
//  4. Everything else goes to the CPUs; if the CPU area exceeds mλ the
//     answer is "NO" (by the knapsack argument no λ-schedule exists).
//  5. Otherwise both pools are list-scheduled, with j_last placed last on
//     the GPUs, yielding makespan <= 2λ (Proposition 1).
func DualStep(in *Instance, lambda float64) DualResult {
	m, k := in.CPUs, in.GPUs
	var gpuForced, cpuForced, flexible []int
	for i, t := range in.Tasks {
		cpuFits := m > 0 && t.CPUTime <= lambda
		gpuFits := k > 0 && t.GPUTime <= lambda
		switch {
		case !cpuFits && !gpuFits:
			return DualResult{OK: false}
		case !cpuFits:
			gpuForced = append(gpuForced, i)
		case !gpuFits:
			cpuForced = append(cpuForced, i)
		default:
			flexible = append(flexible, i)
		}
	}
	sort.SliceStable(flexible, func(a, b int) bool {
		return in.Tasks[flexible[a]].Ratio() > in.Tasks[flexible[b]].Ratio()
	})

	gpuArea := 0.0
	for _, ti := range gpuForced {
		gpuArea += in.Tasks[ti].GPUTime
	}
	if gpuArea > float64(k)*lambda+1e-12 {
		// Forced GPU work alone violates constraint (C2): no λ-schedule.
		return DualResult{OK: false}
	}
	gpuSet := append([]int(nil), gpuForced...)
	jlast := -1
	rest := flexible
	for len(rest) > 0 && gpuArea <= float64(k)*lambda {
		ti := rest[0]
		rest = rest[1:]
		gpuSet = append(gpuSet, ti)
		gpuArea += in.Tasks[ti].GPUTime
		if gpuArea > float64(k)*lambda {
			jlast = ti
		}
	}
	cpuSet := append([]int(nil), cpuForced...)
	cpuSet = append(cpuSet, rest...)
	cpuArea := 0.0
	for _, ti := range cpuSet {
		cpuArea += in.Tasks[ti].CPUTime
	}
	if cpuArea > float64(m)*lambda+1e-12 {
		// W_C > mλ: the greedy knapsack is a lower bound on the minimum
		// CPU workload of any assignment satisfying (C2), so no schedule
		// of length λ exists.
		return DualResult{OK: false}
	}

	s := NewSchedule("dual-2approx", in)
	// GPUs: list-schedule with j_last strictly last (the proof's case
	// analysis relies on it not influencing the other tasks).
	if jlast >= 0 {
		ordered := make([]int, 0, len(gpuSet))
		for _, ti := range gpuSet {
			if ti != jlast {
				ordered = append(ordered, ti)
			}
		}
		ordered = append(ordered, jlast)
		gpuSet = ordered
	}
	s.listSchedule(in, gpuSet, GPU)
	s.listSchedule(in, cpuSet, CPU)
	return DualResult{OK: true, Schedule: s}
}

// The binary search on λ stops after maxIters guesses or once (hi-lo)/hi
// falls below relTol.
const (
	maxIters = 64
	relTol   = 1e-6
)

// DualApprox runs the complete §III algorithm: a binary search on the
// guess λ between a certified lower bound and a greedy upper bound,
// keeping the best schedule any accepted step produced. The returned
// schedule has makespan at most 2·OPT (up to the search tolerance).
func DualApprox(in *Instance) (*Schedule, error) {
	return dualSearch(in, DualStep, "dual-2approx")
}

// dualSearch factors the binary search shared by the greedy and DP steps.
func dualSearch(in *Instance, step func(*Instance, float64) DualResult, name string) (*Schedule, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if len(in.Tasks) == 0 {
		s := NewSchedule(name, in)
		return s, nil
	}
	lo := LowerBound(in)
	hi, seed := greedyUpperBound(in)
	best := seed
	if lo <= 0 {
		lo = math.SmallestNonzeroFloat64
	}
	// The seed schedule's makespan is a valid guess that must succeed, so
	// the invariant "hi always admits a schedule" holds from the start.
	for iter := 0; iter < maxIters && (hi-lo) > relTol*hi; iter++ {
		mid := (lo + hi) / 2
		res := step(in, mid)
		if !res.OK {
			lo = mid
			continue
		}
		hi = mid
		if res.Schedule.Makespan < best.Makespan {
			best = res.Schedule
		}
	}
	// The descent local search only ever reduces the makespan, so the
	// dual-approximation guarantee is preserved while the paper's "almost
	// no idle time" property improves further.
	best = Improve(in, best)
	best.Algorithm = name
	if err := best.Verify(in); err != nil {
		return nil, fmt.Errorf("sched: %s produced an invalid schedule: %w", name, err)
	}
	return best, nil
}

// greedyUpperBound builds a feasible schedule with earliest-finish-time
// list scheduling over both pools (tasks in decreasing best-case time),
// returning its makespan as the initial upper bound.
func greedyUpperBound(in *Instance) (float64, *Schedule) {
	order := make([]int, len(in.Tasks))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return minTime(in, order[a]) > minTime(in, order[b])
	})
	s := NewSchedule("eft-seed", in)
	for _, ti := range order {
		t := in.Tasks[ti]
		bestKind, bestPE, bestEnd := Kind(-1), -1, math.Inf(1)
		if in.CPUs > 0 {
			pe := leastLoaded(s.CPULoads)
			if end := s.CPULoads[pe] + t.CPUTime; end < bestEnd {
				bestKind, bestPE, bestEnd = CPU, pe, end
			}
		}
		if in.GPUs > 0 {
			pe := leastLoaded(s.GPULoads)
			if end := s.GPULoads[pe] + t.GPUTime; end < bestEnd {
				bestKind, bestPE, _ = GPU, pe, end
			}
		}
		s.place(in, ti, bestKind, bestPE)
	}
	return s.Makespan, s
}

func minTime(in *Instance, ti int) float64 {
	t := in.Tasks[ti]
	if in.GPUs == 0 {
		return t.CPUTime
	}
	if in.CPUs == 0 {
		return t.GPUTime
	}
	return math.Min(t.CPUTime, t.GPUTime)
}
