// Package sched implements the paper's core contribution: scheduling
// independent tasks on a hybrid platform of m CPUs and k GPUs to minimize
// makespan, using the dual-approximation technique of Hochbaum & Shmoys
// ([15]). SWDUAL's scheduler, the 2-approximation of §III (greedy
// minimization knapsack + list scheduling inside a binary search on the
// guess λ, then a makespan descent), is DualApprox. The baseline
// policies of the related work ([10] self-scheduling, [11] equal power,
// [12] proportional power) and the earliest-finish-time greedy are
// provided for comparison.
package sched

import (
	"fmt"
	"math"
	"sort"
)

// Kind distinguishes the two processing-element pools.
type Kind int

// The two PE kinds of the hybrid platform.
const (
	CPU Kind = iota
	GPU
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	if k == CPU {
		return "CPU"
	}
	return "GPU"
}

// Task is one schedulable unit: in SWDUAL, the comparison of one query
// sequence against the whole database. CPUTime is p_j and GPUTime is the
// paper's overlined p_j.
type Task struct {
	ID      int
	Label   string
	CPUTime float64
	GPUTime float64
}

// Time returns the task's processing time on a PE kind.
func (t Task) Time(k Kind) float64 {
	if k == CPU {
		return t.CPUTime
	}
	return t.GPUTime
}

// Ratio returns p_j / overline{p_j}, the greedy knapsack priority: tasks
// with the best relative GPU speedup come first.
func (t Task) Ratio() float64 {
	if t.GPUTime <= 0 {
		return math.Inf(1)
	}
	return t.CPUTime / t.GPUTime
}

// Instance is a scheduling problem: n tasks on m CPUs and k GPUs.
type Instance struct {
	Tasks []Task
	CPUs  int // m
	GPUs  int // k
}

// Validate reports structural errors.
func (in *Instance) Validate() error {
	if in.CPUs < 0 || in.GPUs < 0 || in.CPUs+in.GPUs == 0 {
		return fmt.Errorf("sched: platform needs at least one PE (m=%d k=%d)", in.CPUs, in.GPUs)
	}
	for _, t := range in.Tasks {
		if t.CPUTime < 0 || t.GPUTime < 0 {
			return fmt.Errorf("sched: task %d has negative time", t.ID)
		}
		if in.CPUs == 0 && t.GPUTime == 0 && t.CPUTime > 0 {
			return fmt.Errorf("sched: task %d cannot run anywhere", t.ID)
		}
	}
	return nil
}

// Placement is one scheduled task.
type Placement struct {
	Task  int // index into Instance.Tasks
	Kind  Kind
	PE    int // index within the kind's pool
	Start float64
	End   float64
}

// Schedule is a complete solution.
type Schedule struct {
	Algorithm  string
	Placements []Placement // in Instance.Tasks order
	Makespan   float64
	CPULoads   []float64
	GPULoads   []float64
}

// NewSchedule allocates an empty schedule for an instance.
func NewSchedule(algorithm string, in *Instance) *Schedule {
	return &Schedule{
		Algorithm:  algorithm,
		Placements: make([]Placement, len(in.Tasks)),
		CPULoads:   make([]float64, in.CPUs),
		GPULoads:   make([]float64, in.GPUs),
	}
}

// place appends a task at the end of a PE's current load.
func (s *Schedule) place(in *Instance, task int, kind Kind, pe int) {
	loads := s.CPULoads
	if kind == GPU {
		loads = s.GPULoads
	}
	d := in.Tasks[task].Time(kind)
	s.Placements[task] = Placement{Task: task, Kind: kind, PE: pe, Start: loads[pe], End: loads[pe] + d}
	loads[pe] += d
	if loads[pe] > s.Makespan {
		s.Makespan = loads[pe]
	}
}

// leastLoaded returns the index of the least-loaded PE in the pool.
func leastLoaded(loads []float64) int {
	best := 0
	for i := 1; i < len(loads); i++ {
		if loads[i] < loads[best] {
			best = i
		}
	}
	return best
}

// listSchedule assigns tasks (given as indexes, in order) to the
// least-loaded PE of the kind's pool — the paper's list scheduling step.
func (s *Schedule) listSchedule(in *Instance, tasks []int, kind Kind) {
	loads := s.CPULoads
	if kind == GPU {
		loads = s.GPULoads
	}
	for _, ti := range tasks {
		s.place(in, ti, kind, leastLoaded(loads))
	}
}

// IdleTime returns the summed idle time across all PEs under this
// schedule's makespan — the quantity the paper reports as "almost no idle
// time" for SWDUAL.
func (s *Schedule) IdleTime() float64 {
	idle := 0.0
	for _, l := range s.CPULoads {
		idle += s.Makespan - l
	}
	for _, l := range s.GPULoads {
		idle += s.Makespan - l
	}
	return idle
}

// IdleFraction returns idle time as a fraction of total PE-time.
func (s *Schedule) IdleFraction() float64 {
	pes := len(s.CPULoads) + len(s.GPULoads)
	if pes == 0 || s.Makespan == 0 {
		return 0
	}
	return s.IdleTime() / (float64(pes) * s.Makespan)
}

// Verify checks structural soundness against the instance: every task
// placed exactly once on an existing PE, durations consistent, no overlap
// on any PE, loads and makespan consistent.
func (s *Schedule) Verify(in *Instance) error {
	if len(s.Placements) != len(in.Tasks) {
		return fmt.Errorf("sched: %d placements for %d tasks", len(s.Placements), len(in.Tasks))
	}
	type peKey struct {
		kind Kind
		pe   int
	}
	byPE := map[peKey][]Placement{}
	for i, p := range s.Placements {
		if p.Task != i {
			return fmt.Errorf("sched: placement %d refers to task %d", i, p.Task)
		}
		pool := in.CPUs
		if p.Kind == GPU {
			pool = in.GPUs
		}
		if p.PE < 0 || p.PE >= pool {
			return fmt.Errorf("sched: task %d on %v %d outside pool of %d", i, p.Kind, p.PE, pool)
		}
		want := in.Tasks[i].Time(p.Kind)
		if diff := math.Abs((p.End - p.Start) - want); diff > 1e-9*(1+want) {
			return fmt.Errorf("sched: task %d duration %g, want %g", i, p.End-p.Start, want)
		}
		if p.End > s.Makespan+1e-9 {
			return fmt.Errorf("sched: task %d ends at %g beyond makespan %g", i, p.End, s.Makespan)
		}
		byPE[peKey{p.Kind, p.PE}] = append(byPE[peKey{p.Kind, p.PE}], p)
	}
	for key, ps := range byPE {
		sort.Slice(ps, func(a, b int) bool { return ps[a].Start < ps[b].Start })
		for i := 1; i < len(ps); i++ {
			if ps[i].Start < ps[i-1].End-1e-9 {
				return fmt.Errorf("sched: overlap on %v %d between tasks %d and %d", key.kind, key.pe, ps[i-1].Task, ps[i].Task)
			}
		}
	}
	return nil
}

// LowerBound returns a certified lower bound on the optimal makespan:
// the larger of (a) the biggest per-task minimum time — some PE must run
// every task — and (b) total minimum work spread over all PEs.
func LowerBound(in *Instance) float64 {
	lbMax := 0.0
	work := 0.0
	for _, t := range in.Tasks {
		mt := t.CPUTime
		if in.CPUs == 0 || (in.GPUs > 0 && t.GPUTime < mt) {
			mt = t.GPUTime
		}
		if mt > lbMax {
			lbMax = mt
		}
		work += mt
	}
	lbArea := work / float64(in.CPUs+in.GPUs)
	return math.Max(lbMax, lbArea)
}
