package swdual

import (
	"swdual/internal/bench"
	"swdual/internal/master"
	"swdual/internal/platform"
	"swdual/internal/sched"
	"swdual/internal/seq"
	"swdual/internal/stats"
	"swdual/internal/synth"
)

// TaskPlan is one task of a schedule plan.
type TaskPlan struct {
	QueryIndex int
	QueryLen   int
	Kind       string // "CPU" or "GPU"
	PE         int
	Start      float64
	End        float64
}

// SchedulePlan is the outcome of planning a search on the calibrated
// paper-scale platform model without executing it.
type SchedulePlan struct {
	Algorithm    string
	Makespan     float64 // modeled seconds
	GCUPS        float64
	IdleFraction float64
	LowerBound   float64
	Tasks        []TaskPlan
	// Gantt is a text Gantt chart of the planned schedule (one row per
	// PE, task letters over time).
	Gantt string
}

// Plan runs only the scheduler over the calibrated platform model: it
// answers "how would this search be split and how long would it take on
// the paper's hardware" without computing alignments. Queries may be a
// generated set or any loaded database. The platform has the CPU and GPU
// counts of opt.Pool, and the plan is the one opt.Policy's scheduler
// makes — the scheduler a Searcher with these Options runs on its waves
// (self-scheduling, which allocates while workers run, is simulated by
// handing each task to the PE that frees first). Plan takes gpu=, which
// a search refuses; any other Pool or Policy value NewSearcher refuses,
// Plan refuses with the same error.
func Plan(db, queries *Database, opt Options) (*SchedulePlan, error) {
	if db == nil || queries == nil {
		return nil, errNilSets
	}
	pool, err := opt.pool()
	if err != nil {
		return nil, err
	}
	policy, err := opt.policy()
	if err != nil {
		return nil, err
	}
	p := platform.New(pool.CPU, pool.GPU)
	return planModel(p, p.ModelDB("db", setLengths(db.set)), setLengths(queries.set), policy)
}

// planModel is the one modeled planner behind Plan and PaperPlatformPlan:
// run the policy's scheduler over the database model on the calibrated
// platform p, and render the plan.
func planModel(p *platform.Platform, model *platform.DBModel, queryLens []int, policy master.Policy) (*SchedulePlan, error) {
	in := p.Instance(model, queryLens)
	s, err := policy.Schedule(in)
	if err != nil {
		return nil, err
	}
	plan := &SchedulePlan{
		Algorithm:    s.Algorithm,
		Makespan:     s.Makespan,
		GCUPS:        stats.GCUPS(platform.Cells(model, queryLens), s.Makespan),
		IdleFraction: s.IdleFraction(),
		LowerBound:   sched.LowerBound(in),
		Gantt:        s.Gantt(in, 96),
	}
	for _, pl := range s.Placements {
		plan.Tasks = append(plan.Tasks, TaskPlan{
			QueryIndex: pl.Task,
			QueryLen:   queryLens[pl.Task],
			Kind:       pl.Kind.String(),
			PE:         pl.PE,
			Start:      pl.Start,
			End:        pl.End,
		})
	}
	return plan, nil
}

// setLengths lists the sequence lengths of a set.
func setLengths(set *seq.Set) []int {
	lengths := make([]int, set.Len())
	for i := range lengths {
		lengths[i] = set.Seqs[i].Len()
	}
	return lengths
}

// PaperPlatformPlan plans one of the paper's experiments directly from a
// database preset name and query-set kind at full paper scale: the
// dual-approximation schedule on workers split into GPUs and CPUs as the
// paper's Table IV splits them.
func PaperPlatformPlan(preset, querySet string, workers int) (*SchedulePlan, error) {
	spec, err := synth.DatabaseByName(preset)
	if err != nil {
		return nil, err
	}
	qs, err := synth.QueriesByName(querySet)
	if err != nil {
		return nil, err
	}
	gpus, cpus := bench.WorkerSplit(workers)
	return planModel(platform.New(cpus, gpus), bench.DBModel(spec), qs.Lengths, master.PolicyDualApprox)
}
