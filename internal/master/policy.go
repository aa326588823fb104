package master

import (
	"errors"
	"fmt"
	"sort"

	"swdual/internal/sched"
)

// Scheduling policy: the second of the master's three roles. A policy
// names one scheduler of package sched (Policy.Schedule), and Assign turns
// its schedule into per-kind task queues; the paper's dual-approximation
// scheduler is the default.

// Policy selects how the master allocates tasks to workers.
type Policy int

// Allocation policies.
const (
	// PolicyDualApprox is SWDUAL's one-round dual-approximation
	// allocation (§III, sched.DualApprox).
	PolicyDualApprox Policy = iota
	// PolicySelfScheduling is the related-work baseline [10]: idle
	// workers pull the next task.
	PolicySelfScheduling
	// PolicyRoundRobin deals tasks over workers in turn, GPUs first
	// ([11]'s equal-power assumption).
	PolicyRoundRobin
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case PolicyDualApprox:
		return "dual-approx"
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
	case "self-scheduling":
		return PolicySelfScheduling, nil
	case "round-robin":
		return PolicyRoundRobin, nil
	}
	return 0, fmt.Errorf("master: unknown policy %q (valid policies: dual-approx, self-scheduling, round-robin)", name)
}

// Schedule plans the instance offline with the policy's scheduler in
// package sched — the one mapping from a policy to a schedule, which
// Assign runs for the engine and the modeled plans of the public API
// report: dual-approx is sched.DualApprox (SWDUAL), round-robin
// sched.EqualPower ([11]) and self-scheduling sched.SelfScheduling
// ([10], simulated by handing each task to the PE that frees first).
func (p Policy) Schedule(in *sched.Instance) (*sched.Schedule, error) {
	switch p {
	case PolicyDualApprox:
		return sched.DualApprox(in)
	case PolicyRoundRobin:
		return sched.EqualPower(in)
	case PolicySelfScheduling:
		return sched.SelfScheduling(in)
	}
	return nil, fmt.Errorf("master: unknown policy %v", p)
}

// ErrDynamicPolicy is returned by Assign for policies that allocate at
// run time (self-scheduling) instead of producing static queues.
var ErrDynamicPolicy = errors.New("master: policy allocates dynamically")

// Assign runs a static policy's Schedule over the instance and returns,
// per sched.Kind, the task indices in planned start order — the order a
// Pool's per-kind FIFO hands them to whichever worker of the kind frees
// first — and the schedule itself. The instance may span fewer PEs than
// workers has (the engine plans on the idle part of its pool) but never
// more of a kind: a task fed to a kind no worker serves would never run.
// Self-scheduling returns ErrDynamicPolicy: its allocation happens while
// workers run.
func Assign(policy Policy, in *sched.Instance, workers []Worker) (queues [2][]int, s *sched.Schedule, err error) {
	if r := RatesOf(workers); in.CPUs > r.CPUs || in.GPUs > r.GPUs {
		return queues, nil, fmt.Errorf("master: instance spans %d CPUs + %d GPUs, the pool has %d + %d", in.CPUs, in.GPUs, r.CPUs, r.GPUs)
	}
	if policy == PolicySelfScheduling {
		return queues, nil, ErrDynamicPolicy
	}
	if s, err = policy.Schedule(in); err != nil {
		return queues, nil, err
	}
	byStart := append([]sched.Placement(nil), s.Placements...)
	sort.SliceStable(byStart, func(a, b int) bool { return byStart[a].Start < byStart[b].Start })
	for _, pl := range byStart {
		queues[pl.Kind] = append(queues[pl.Kind], pl.Task)
	}
	return queues, s, nil
}
