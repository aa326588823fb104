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

// DualApprox is SWDUAL's scheduler (§III): a binary search on the guess
// λ between the certified LowerBound and the makespan of an
// earliest-finish-time list schedule, keeping the best schedule any
// accepted DualStep produced, which Improve then descends. The EFT
// schedule only bounds the search; it is returned as it is only when
// its makespan already meets the lower bound (it is then optimal). Every
// returned schedule passes Verify, and its makespan is at most 2·OPT (up
// to the search tolerance).
func DualApprox(in *Instance) (*Schedule, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if len(in.Tasks) == 0 {
		return NewSchedule("dual-2approx", in), nil
	}
	lo := LowerBound(in)
	hi, seed := greedyUpperBound(in)
	if hi <= lo*(1+relTol) {
		return named(in, seed) // meets the lower bound: optimal
	}
	if lo <= 0 {
		lo = math.SmallestNonzeroFloat64
	}
	// A schedule of length hi exists, so the step at hi succeeds: "hi
	// always admits a schedule" holds from the start.
	var best *Schedule
	for iter := 0; iter < maxIters && (hi-lo) > relTol*hi; iter++ {
		mid := (lo + hi) / 2
		res := DualStep(in, mid)
		if !res.OK {
			lo = mid
			continue
		}
		hi = mid
		if best == nil || res.Schedule.Makespan < best.Makespan {
			best = res.Schedule
		}
	}
	if best == nil {
		res := DualStep(in, hi)
		if !res.OK {
			return nil, fmt.Errorf("sched: dual-2approx refused the feasible guess %g", hi)
		}
		best = res.Schedule
	}
	// The descent only ever reduces the makespan, so the guarantee holds
	// (Improve says why it is needed).
	return named(in, Improve(in, best))
}

// named labels a DualApprox result and checks it with Verify.
func named(in *Instance, s *Schedule) (*Schedule, error) {
	s.Algorithm = "dual-2approx"
	if err := s.Verify(in); err != nil {
		return nil, fmt.Errorf("sched: dual-2approx produced an invalid schedule: %w", err)
	}
	return s, nil
}

// greedyUpperBound builds a feasible schedule with earliest-finish-time
// list scheduling over both pools (tasks in decreasing best-case time),
// returning its makespan as DualApprox's initial upper bound.
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
