package sched

import (
	"math"
)

// The dynamic-programming dual step refines the greedy knapsack following
// the structure of the companion paper [13]: for a guess λ, a task is
// "big" on a PE kind when its processing time there exceeds λ/2 (a
// λ-schedule fits at most one big task per PE, so at most k big tasks on
// the GPUs and m on the CPUs — necessary conditions the DP enforces in
// addition to the area constraints (C1)/(C2)). Among assignments meeting
// all four necessary conditions the DP minimizes the CPU area exactly (up
// to area discretization), and the constructive phase places one big task
// per PE before list-scheduling the small ones, which yields makespan
// <= (3/2 + ε)·λ with ε = n/dpBuckets.

const (
	// dpBuckets discretizes the GPU area axis; the guarantee slack ε is
	// n/dpBuckets.
	dpBuckets = 2048
	// dpMaxStates caps the DP table size; above it DualStepDP falls back
	// to the greedy DualStep (the paper's special case already achieves
	// the guarantee for uniformly accelerated tasks).
	dpMaxStates = 8 << 20
)

// DualApproxDP runs the binary search with the DP refinement step.
func DualApproxDP(in *Instance) (*Schedule, error) {
	return dualSearch(in, DualStepDP, "dual-3/2-dp")
}

// DualStepDP is one dual-approximation step using the DP assignment.
func DualStepDP(in *Instance, lambda float64) DualResult {
	m, k := in.CPUs, in.GPUs
	states := (k + 1) * (m + 1) * (dpBuckets + 1)
	if states > dpMaxStates {
		return DualStep(in, lambda)
	}
	if m == 0 || k == 0 {
		// Single-pool platforms: the greedy step already handles them.
		return DualStep(in, lambda)
	}
	half := lambda / 2
	budget := float64(k) * lambda
	bucketOf := func(gpuTime float64) int {
		// Floor keeps "NO" answers sound: underestimating areas only
		// admits more assignments.
		return int(gpuTime / budget * float64(dpBuckets))
	}

	// Forced assignments first.
	var flexible []int
	baseCPUArea := 0.0
	bigCPU0, bigGPU0, gpuB0 := 0, 0, 0
	for i, t := range in.Tasks {
		cpuFits := t.CPUTime <= lambda
		gpuFits := t.GPUTime <= lambda
		switch {
		case !cpuFits && !gpuFits:
			return DualResult{OK: false}
		case !cpuFits:
			gpuB0 += bucketOf(t.GPUTime)
			if t.GPUTime > half {
				bigGPU0++
			}
		case !gpuFits:
			baseCPUArea += t.CPUTime
			if t.CPUTime > half {
				bigCPU0++
			}
		default:
			flexible = append(flexible, i)
		}
	}
	if bigGPU0 > k || bigCPU0 > m || gpuB0 > dpBuckets {
		return DualResult{OK: false}
	}

	// DP over (bigGPU, bigCPU, gpuBucket) -> min additional CPU area.
	bStride := dpBuckets + 1
	cStride := (m + 1) * bStride
	idx := func(bg, bc, gb int) int { return bg*cStride + bc*bStride + gb }
	cur := make([]float64, states)
	next := make([]float64, states)
	for i := range cur {
		cur[i] = math.Inf(1)
	}
	cur[idx(bigGPU0, bigCPU0, gpuB0)] = 0
	choices := make([][]uint8, len(flexible)) // 1 = CPU, 2 = GPU
	for fi, ti := range flexible {
		t := in.Tasks[ti]
		tb := bucketOf(t.GPUTime)
		dBigG, dBigC := 0, 0
		if t.GPUTime > half {
			dBigG = 1
		}
		if t.CPUTime > half {
			dBigC = 1
		}
		choice := make([]uint8, states)
		for i := range next {
			next[i] = math.Inf(1)
		}
		for bg := 0; bg <= k; bg++ {
			for bc := 0; bc <= m; bc++ {
				for gb := 0; gb <= dpBuckets; gb++ {
					v := cur[idx(bg, bc, gb)]
					if math.IsInf(v, 1) {
						continue
					}
					// CPU choice.
					if bc+dBigC <= m {
						ni := idx(bg, bc+dBigC, gb)
						if nv := v + t.CPUTime; nv < next[ni] {
							next[ni] = nv
							choice[ni] = 1
						}
					}
					// GPU choice.
					if bg+dBigG <= k && gb+tb <= dpBuckets {
						ni := idx(bg+dBigG, bc, gb+tb)
						if v < next[ni] {
							next[ni] = v
							choice[ni] = 2
						}
					}
				}
			}
		}
		choices[fi] = choice
		cur, next = next, cur
	}

	// Find a feasible terminal state: CPU area within mλ.
	bestState, bestArea := -1, math.Inf(1)
	for s, v := range cur {
		if v+baseCPUArea <= float64(m)*lambda+1e-9 && v < bestArea {
			bestArea = v
			bestState = s
		}
	}
	if bestState < 0 {
		return DualResult{OK: false}
	}

	// Reconstruct the flexible assignments by walking the choice layers
	// backwards.
	onGPU := make(map[int]bool, len(in.Tasks))
	state := bestState
	for fi := len(flexible) - 1; fi >= 0; fi-- {
		ti := flexible[fi]
		t := in.Tasks[ti]
		bg := state / cStride
		bc := (state % cStride) / bStride
		gb := state % bStride
		switch choices[fi][state] {
		case 1:
			onGPU[ti] = false
			if t.CPUTime > half {
				bc--
			}
		case 2:
			onGPU[ti] = true
			if t.GPUTime > half {
				bg--
			}
			gb -= bucketOf(t.GPUTime)
		default:
			// Unreachable state in reconstruction indicates a bug.
			return DualResult{OK: false}
		}
		state = idx(bg, bc, gb)
	}

	// Assemble the task sets including forced tasks.
	var gpuBig, gpuSmall, cpuBig, cpuSmall []int
	for i, t := range in.Tasks {
		gpu := false
		if t.CPUTime > lambda {
			gpu = true
		} else if t.GPUTime <= lambda {
			g, seen := onGPU[i]
			if !seen {
				// Flexible task missing from reconstruction: impossible.
				return DualResult{OK: false}
			}
			gpu = g
		}
		switch {
		case gpu && t.GPUTime > half:
			gpuBig = append(gpuBig, i)
		case gpu:
			gpuSmall = append(gpuSmall, i)
		case t.CPUTime > half:
			cpuBig = append(cpuBig, i)
		default:
			cpuSmall = append(cpuSmall, i)
		}
	}

	// Constructive phase: one big task per PE, then list-schedule the
	// small ones onto the least-loaded PE.
	s := NewSchedule("dual-3/2-dp", in)
	for i, ti := range gpuBig {
		s.place(in, ti, GPU, i)
	}
	for i, ti := range cpuBig {
		s.place(in, ti, CPU, i)
	}
	s.listSchedule(in, gpuSmall, GPU)
	s.listSchedule(in, cpuSmall, CPU)
	return DualResult{OK: true, Schedule: s}
}
