package sched

import (
	"math"
	"sort"
)

// The scheduling policies of the related work: comparison baselines of
// the ablation experiments, and — SelfScheduling and EqualPower — the
// schedules master.Policy.Schedule plans for the self-scheduling and
// round-robin policies.

// SelfScheduling implements the one-task-at-a-time strategy of [10]: an
// idle PE requests the next task in arrival order. It is simulated by
// repeatedly handing the next task to the PE that becomes idle first
// (GPUs win ties, as faster consumers do in a real master-slave run).
func SelfScheduling(in *Instance) (*Schedule, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	s := NewSchedule("self-scheduling", in)
	for ti := range in.Tasks {
		kind, pe := CPU, -1
		avail := math.Inf(1)
		if in.GPUs > 0 {
			g := leastLoaded(s.GPULoads)
			kind, pe, avail = GPU, g, s.GPULoads[g]
		}
		if in.CPUs > 0 {
			c := leastLoaded(s.CPULoads)
			if s.CPULoads[c] < avail {
				kind, pe = CPU, c
			}
		}
		s.place(in, ti, kind, pe)
	}
	return s, s.Verify(in)
}

// EqualPower implements the assumption of [11] that multi-cores and
// accelerators have the same processing power: tasks are dealt round-robin
// over every PE with no regard for speeds.
func EqualPower(in *Instance) (*Schedule, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	s := NewSchedule("equal-power", in)
	total := in.CPUs + in.GPUs
	for ti := range in.Tasks {
		slot := ti % total
		if slot < in.GPUs {
			s.place(in, ti, GPU, slot)
		} else {
			s.place(in, ti, CPU, slot-in.GPUs)
		}
	}
	return s, s.Verify(in)
}

// ProportionalPower implements the strategy of [12]: work is split between
// the pools proportionally to their theoretical computing power, here
// estimated from the mean CPU/GPU time ratio; each pool then
// list-schedules its share (largest tasks first).
func ProportionalPower(in *Instance) (*Schedule, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	s := NewSchedule("proportional-power", in)
	if in.GPUs == 0 || in.CPUs == 0 {
		order := lptOrder(in, kindFor(in))
		s.listSchedule(in, order, kindFor(in))
		return s, s.Verify(in)
	}
	ratio := 0.0
	for _, t := range in.Tasks {
		ratio += t.Ratio()
	}
	if len(in.Tasks) > 0 {
		ratio /= float64(len(in.Tasks))
	}
	gpuPower := float64(in.GPUs) * ratio
	share := gpuPower / (gpuPower + float64(in.CPUs))
	totalWork := 0.0
	for _, t := range in.Tasks {
		totalWork += t.CPUTime
	}
	// Largest CPU-work first; the GPU pool absorbs its proportional share.
	order := make([]int, len(in.Tasks))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return in.Tasks[order[a]].CPUTime > in.Tasks[order[b]].CPUTime
	})
	var gpuSet, cpuSet []int
	acc := 0.0
	for _, ti := range order {
		if acc < share*totalWork {
			gpuSet = append(gpuSet, ti)
			acc += in.Tasks[ti].CPUTime
		} else {
			cpuSet = append(cpuSet, ti)
		}
	}
	s.listSchedule(in, gpuSet, GPU)
	s.listSchedule(in, cpuSet, CPU)
	return s, s.Verify(in)
}

// CPUOnly schedules everything on the CPU pool with LPT list scheduling.
func CPUOnly(in *Instance) (*Schedule, error) {
	return singlePool(in, CPU, "cpu-only")
}

// GPUOnly schedules everything on the GPU pool with LPT list scheduling.
func GPUOnly(in *Instance) (*Schedule, error) {
	return singlePool(in, GPU, "gpu-only")
}

func singlePool(in *Instance, kind Kind, name string) (*Schedule, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	pool := in.CPUs
	if kind == GPU {
		pool = in.GPUs
	}
	if pool == 0 {
		return nil, errNoPool(kind)
	}
	s := NewSchedule(name, in)
	s.listSchedule(in, lptOrder(in, kind), kind)
	return s, s.Verify(in)
}

type errNoPool Kind

func (e errNoPool) Error() string { return "sched: no " + Kind(e).String() + "s in platform" }

// EFT is the earliest-finish-time greedy over both pools (largest
// min-time first) — DualApprox's initial upper bound, exposed as a
// baseline in its own right.
func EFT(in *Instance) (*Schedule, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	_, s := greedyUpperBound(in)
	s.Algorithm = "eft"
	return s, s.Verify(in)
}

func lptOrder(in *Instance, kind Kind) []int {
	order := make([]int, len(in.Tasks))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return in.Tasks[order[a]].Time(kind) > in.Tasks[order[b]].Time(kind)
	})
	return order
}

func kindFor(in *Instance) Kind {
	if in.CPUs > 0 {
		return CPU
	}
	return GPU
}

// Algorithms maps every scheduling policy by name, for harnesses.
var Algorithms = map[string]func(*Instance) (*Schedule, error){
	"dual-2approx":       DualApprox,
	"self-scheduling":    SelfScheduling,
	"equal-power":        EqualPower,
	"proportional-power": ProportionalPower,
	"eft":                EFT,
	"cpu-only":           CPUOnly,
	"gpu-only":           GPUOnly,
}
