package swdual

import (
	"fmt"

	"swdual/internal/bench"
	"swdual/internal/platform"
	"swdual/internal/sched"
	"swdual/internal/seq"
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
// generated set or any loaded database. A Searcher's Plan method does
// the same over its prepared database statistics.
func Plan(db, queries *Database, opt Options) (*SchedulePlan, error) {
	if db == nil || queries == nil {
		return nil, errNilSets
	}
	return planModel(setLengths(db.set), queryLengths(queries), opt)
}

// planModel is the shared scheduling-only path behind Plan and
// Searcher.Plan: model the database on the calibrated platform with the
// CPU and GPU counts of opt's pool, run the selected dual-approximation
// variant, and render the plan.
func planModel(dbLengths, queryLens []int, opt Options) (*SchedulePlan, error) {
	pool, err := opt.pool()
	if err != nil {
		return nil, err
	}
	p := platform.New(pool.CPU, pool.GPU)
	model := p.ModelDB("db", dbLengths)
	in := p.Instance(model, queryLens)
	var s *sched.Schedule
	if opt.Policy == "dual-approx-dp" {
		s, err = sched.DualApproxDP(in)
	} else {
		s, err = sched.DualApprox(in)
	}
	if err != nil {
		return nil, err
	}
	plan := &SchedulePlan{
		Algorithm:    s.Algorithm,
		Makespan:     s.Makespan,
		GCUPS:        platform.GCUPS(platform.Cells(model, queryLens), s.Makespan),
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

// queryLengths lists the sequence lengths of a query database.
func queryLengths(queries *Database) []int { return setLengths(queries.set) }

// PaperPlatformPlan plans one of the paper's experiments directly from a
// database preset name and query-set kind at full paper scale.
func PaperPlatformPlan(preset, querySet string, workers int) (*SchedulePlan, error) {
	spec, err := synth.DatabaseByName(preset)
	if err != nil {
		return nil, err
	}
	var qs synth.QuerySpec
	switch querySet {
	case "standard":
		qs = synth.StandardQueries()
	case "homogeneous":
		qs = synth.HomogeneousQueries()
	case "heterogeneous":
		qs = synth.HeterogeneousQueries()
	default:
		return nil, fmt.Errorf("swdual: unknown query set %q", querySet)
	}
	gpus, cpus := bench.WorkerSplit(workers)
	p := platform.New(cpus, gpus)
	model := p.ModelDB(spec.Name, spec.GenerateLengths())
	in := p.Instance(model, qs.Lengths)
	s, err := sched.DualApprox(in)
	if err != nil {
		return nil, err
	}
	return &SchedulePlan{
		Algorithm:    s.Algorithm,
		Makespan:     s.Makespan,
		GCUPS:        platform.GCUPS(platform.Cells(model, qs.Lengths), s.Makespan),
		IdleFraction: s.IdleFraction(),
		LowerBound:   sched.LowerBound(in),
		Gantt:        s.Gantt(in, 96),
	}, nil
}
