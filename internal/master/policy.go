package master

import (
	"errors"
	"fmt"
	"sort"

	"swdual/internal/sched"
)

// Scheduling policy: the second of the master's three roles. A policy
// turns a scheduling instance into per-kind task queues; the paper's
// dual-approximation scheduler is the default.

// Policy selects how the master allocates tasks to workers.
type Policy int

// Allocation policies.
const (
	// PolicyDualApprox is the paper's one-round dual-approximation
	// allocation (§III).
	PolicyDualApprox Policy = iota
	// PolicyDualApproxDP is the 3/2 dynamic-programming refinement.
	PolicyDualApproxDP
	// PolicySelfScheduling is the related-work baseline [10]: idle
	// workers pull the next task.
	PolicySelfScheduling
	// PolicyRoundRobin deals tasks over workers in turn ([11]'s
	// equal-power assumption).
	PolicyRoundRobin
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case PolicyDualApprox:
		return "dual-approx"
	case PolicyDualApproxDP:
		return "dual-approx-dp"
	case PolicySelfScheduling:
		return "self-scheduling"
	case PolicyRoundRobin:
		return "round-robin"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ParsePolicy resolves a policy name as accepted on the public API and
// the command line. The empty string selects the default (dual-approx).
func ParsePolicy(name string) (Policy, error) {
	switch name {
	case "", "dual-approx":
		return PolicyDualApprox, nil
	case "dual-approx-dp":
		return PolicyDualApproxDP, nil
	case "self-scheduling":
		return PolicySelfScheduling, nil
	case "round-robin":
		return PolicyRoundRobin, nil
	}
	return 0, fmt.Errorf("master: unknown policy %q (valid policies: dual-approx, dual-approx-dp, self-scheduling, round-robin)", name)
}

// ErrDynamicPolicy is returned by Assign for policies that allocate at
// run time (self-scheduling) instead of producing static queues.
var ErrDynamicPolicy = errors.New("master: policy allocates dynamically")

// Assign runs a static policy over the instance and returns, per
// sched.Kind, the task indices in planned start order — the order a
// Pool's per-kind FIFO hands them to whichever worker of the kind frees
// first. The instance may span fewer PEs than workers has (the engine
// plans on the idle part of its pool) but never more of a kind: a task
// fed to a kind no worker serves would never run. The schedule is
// non-nil for the dual-approximation policies. Self-scheduling returns
// ErrDynamicPolicy: its allocation happens while workers run.
func Assign(policy Policy, in *sched.Instance, workers []Worker) (queues [2][]int, s *sched.Schedule, err error) {
	if r := RatesOf(workers); in.CPUs > r.CPUs || in.GPUs > r.GPUs {
		return queues, nil, fmt.Errorf("master: instance spans %d CPUs + %d GPUs, the pool has %d + %d", in.CPUs, in.GPUs, r.CPUs, r.GPUs)
	}
	switch policy {
	case PolicyRoundRobin:
		for i := range in.Tasks {
			if i%(in.CPUs+in.GPUs) < in.CPUs {
				queues[sched.CPU] = append(queues[sched.CPU], i)
			} else {
				queues[sched.GPU] = append(queues[sched.GPU], i)
			}
		}
		return queues, nil, nil
	case PolicyDualApprox, PolicyDualApproxDP:
		if policy == PolicyDualApproxDP {
			s, err = sched.DualApproxDP(in)
		} else {
			s, err = sched.DualApprox(in)
		}
		if err != nil {
			return queues, nil, err
		}
		byStart := append([]sched.Placement(nil), s.Placements...)
		sort.SliceStable(byStart, func(a, b int) bool { return byStart[a].Start < byStart[b].Start })
		for _, pl := range byStart {
			queues[pl.Kind] = append(queues[pl.Kind], pl.Task)
		}
		return queues, s, nil
	case PolicySelfScheduling:
		return queues, nil, ErrDynamicPolicy
	}
	return queues, nil, fmt.Errorf("master: unknown policy %v", policy)
}
