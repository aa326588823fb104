package bench

import (
	"context"
	"fmt"
	"math/rand"

	"swdual/internal/engine"
	"swdual/internal/master"
	"swdual/internal/platform"
	"swdual/internal/sched"
	"swdual/internal/stats"
	"swdual/internal/sw"
	"swdual/internal/swvector"
	"swdual/internal/synth"
)

// Config tunes the harness.
type Config struct {
	// FunctionalScale divides database and query sizes in the functional
	// (real compute) validation experiment. Default 2000.
	FunctionalScale int
}

func (c *Config) defaults() {
	if c.FunctionalScale <= 0 {
		c.FunctionalScale = 2000
	}
}

// functionalWorkers is the worker count of the functional run, split by
// WorkerSplit into 3 GPUs and 1 CPU.
const functionalWorkers = 4

// Runner executes experiments, caching database models between them.
type Runner struct {
	cfg     Config
	lengths map[string][]int
	models  map[string]*platform.DBModel
}

// NewRunner builds a Runner.
func NewRunner(cfg Config) *Runner {
	cfg.defaults()
	return &Runner{cfg: cfg, lengths: map[string][]int{}, models: map[string]*platform.DBModel{}}
}

// ExperimentIDs lists the regenerable artifacts in paper order.
var ExperimentIDs = []string{"table1", "table2", "table3", "table4", "table5", "idle", "sched", "kepler", "functional"}

// ByID runs one experiment by its identifier.
func (r *Runner) ByID(id string) (*Table, error) {
	switch id {
	case "table1":
		return r.Table1(), nil
	case "table2", "figure7":
		return r.Table2Figure7(), nil
	case "table3":
		return r.Table3(), nil
	case "table4", "figure8":
		return r.Table4Figure8(), nil
	case "table5", "figure9":
		return r.Table5Figure9(), nil
	case "idle":
		return r.AblationIdle(), nil
	case "sched":
		return r.AblationSchedulers(), nil
	case "kepler":
		return r.AblationKepler(), nil
	case "functional":
		return r.FunctionalValidation()
	}
	return nil, fmt.Errorf("bench: unknown experiment %q (have %v)", id, ExperimentIDs)
}

func (r *Runner) dbLengths(spec synth.DBSpec) []int {
	if l, ok := r.lengths[spec.Name]; ok {
		return l
	}
	l := spec.GenerateLengths()
	r.lengths[spec.Name] = l
	return l
}

func (r *Runner) dbModel(spec synth.DBSpec) *platform.DBModel {
	if m, ok := r.models[spec.Name]; ok {
		return m
	}
	// The model depends only on the device configuration, not the
	// platform shape, so any shape can build it.
	p := platform.New(1, 1)
	m := p.ModelDB(spec.Name, r.dbLengths(spec))
	r.models[spec.Name] = m
	return m
}

// swdualRun schedules the query set on the paper's worker composition and
// returns the modeled makespan and the schedule.
func (r *Runner) swdualRun(spec synth.DBSpec, queryLens []int, workers int) (float64, *sched.Schedule) {
	gpus, cpus := WorkerSplit(workers)
	p := platform.New(cpus, gpus)
	in := p.Instance(r.dbModel(spec), queryLens)
	s, err := sched.DualApprox(in)
	if err != nil {
		panic(fmt.Sprintf("bench: scheduling failed: %v", err))
	}
	return s.Makespan, s
}

// Table1 regenerates Table I: the compared applications, extended with
// the module standing in for each in this reproduction.
func (r *Runner) Table1() *Table {
	t := &Table{
		ID:      "Table I",
		Title:   "Applications included in the comparison",
		Columns: []string{"Application", "Version", "Command line", "Reproduction analogue"},
	}
	for _, app := range PaperTable1 {
		t.AddRow(app.Name, app.Version, app.Command, app.OurAnalogue)
	}
	return t
}

// Table2Figure7 regenerates Table II and Figure 7: execution time vs
// number of workers on UniProt for the four baseline applications and
// SWDUAL. Baseline single-worker rates are fitted to the paper's first
// column (the tools and testbed are not reproducible); their multi-worker
// rows are LPT schedules at those rates (plus the fitted host-contention
// factor for multi-GPU CUDASW++). SWDUAL rows are genuine outputs of the
// dual-approximation scheduler over the calibrated platform model.
func (r *Runner) Table2Figure7() *Table {
	t := &Table{
		ID:      "Table II / Figure 7",
		Title:   "Execution times (s) on UniProt, 40 queries",
		Columns: []string{"Application", "Workers", "Paper (s)", "Model (s)", "Delta %"},
	}
	spec := synth.UniProt
	queries := synth.StandardQueries()
	model := r.dbModel(spec)
	cells := platform.Cells(model, queries.Lengths)

	addRow := func(app string, w int, modelSec float64) {
		paperSec := PaperTable2[app][w]
		t.AddRow(app, fmt.Sprintf("%d", w),
			stats.FmtSeconds(paperSec), stats.FmtSeconds(modelSec),
			fmt.Sprintf("%+.1f", stats.PctDelta(modelSec, paperSec)))
	}

	// CPU-only baselines at fitted rates.
	for _, app := range []string{"SWPS3", "STRIPED", "SWIPE"} {
		rate := float64(cells) / PaperTable2[app][1] // cells/s so that w=1 matches
		series := Series{Name: app + " (CPU)"}
		for w := 1; w <= 4; w++ {
			sec := cpuPoolMakespan(queries.Lengths, model, rate, w)
			addRow(app, w, sec)
			series.X = append(series.X, float64(w))
			series.Y = append(series.Y, sec)
		}
		t.Series = append(t.Series, series)
	}
	// CUDASW++ baseline from the GPU simulator plus host contention.
	{
		p := platform.New(0, 4)
		series := Series{Name: "CUDASW++ (GPU)"}
		for w := 1; w <= 4; w++ {
			in := &sched.Instance{CPUs: 0, GPUs: w}
			for i, ql := range queries.Lengths {
				in.Tasks = append(in.Tasks, sched.Task{ID: i, GPUTime: p.GPUSecondsContended(model, ql, w)})
			}
			s, err := sched.GPUOnly(in)
			if err != nil {
				panic(err)
			}
			addRow("CUDASW++", w, s.Makespan)
			series.X = append(series.X, float64(w))
			series.Y = append(series.Y, s.Makespan)
		}
		t.Series = append(t.Series, series)
	}
	// SWDUAL: the real scheduler over the calibrated platform.
	{
		series := Series{Name: "SWDUAL (Mixed)"}
		for w := 2; w <= 8; w++ {
			sec, _ := r.swdualRun(spec, queries.Lengths, w)
			addRow("SWDUAL", w, sec)
			series.X = append(series.X, float64(w))
			series.Y = append(series.Y, sec)
		}
		t.Series = append(t.Series, series)
	}
	t.AddNote("baseline w=1 rows are fitted by construction; multi-worker baseline rows and all SWDUAL rows are model outputs")
	t.AddNote("total cells = %.4g (paper-implied 1.9455e13)", float64(cells))
	return t
}

// cpuPoolMakespan LPT-schedules the 40 tasks over w identical CPU workers
// at the given rate (cells/s).
func cpuPoolMakespan(queryLens []int, db *platform.DBModel, rate float64, w int) float64 {
	in := &sched.Instance{CPUs: w, GPUs: 0}
	for i, ql := range queryLens {
		cells := float64(ql) * float64(db.TotalResidues)
		in.Tasks = append(in.Tasks, sched.Task{ID: i, CPUTime: cells / rate})
	}
	s, err := sched.CPUOnly(in)
	if err != nil {
		panic(err)
	}
	return s.Makespan
}

// Table3 regenerates Table III: the genomic databases used in the tests.
func (r *Runner) Table3() *Table {
	t := &Table{
		ID:      "Table III",
		Title:   "Genomic databases used on the tests (synthetic presets)",
		Columns: []string{"Database", "Number of seqs", "Paper seqs", "Total residues", "Mean len", "Smallest query", "Longest query"},
	}
	queries := synth.StandardQueries()
	qmin, qmax := queries.Lengths[0], queries.Lengths[len(queries.Lengths)-1]
	for _, spec := range synth.Databases {
		lengths := r.dbLengths(spec)
		var tot int64
		for _, l := range lengths {
			tot += int64(l)
		}
		t.AddRow(spec.Name,
			fmt.Sprintf("%d", len(lengths)),
			fmt.Sprintf("%d", spec.Count),
			fmt.Sprintf("%d", tot),
			fmt.Sprintf("%.0f", float64(tot)/float64(len(lengths))),
			fmt.Sprintf("%d", qmin),
			fmt.Sprintf("%d", qmax))
	}
	t.AddNote("mean lengths are back-derived from Table IV (cells = GCUPS x time); see DESIGN.md substitutions")
	return t
}

// Table4Figure8 regenerates Table IV and Figure 8: SWDUAL on the five
// databases with 2, 4 and 8 workers (figure series cover 2..8).
func (r *Runner) Table4Figure8() *Table {
	t := &Table{
		ID:      "Table IV / Figure 8",
		Title:   "SWDUAL on GPUs and CPUs: time and GCUPS per database",
		Columns: []string{"Database", "Workers", "Paper time", "Model time", "Delta %", "Paper GCUPS", "Model GCUPS"},
	}
	queries := synth.StandardQueries()
	for _, spec := range synth.Databases {
		model := r.dbModel(spec)
		cells := platform.Cells(model, queries.Lengths)
		series := Series{Name: spec.Name}
		for w := 2; w <= 8; w++ {
			sec, _ := r.swdualRun(spec, queries.Lengths, w)
			series.X = append(series.X, float64(w))
			series.Y = append(series.Y, sec)
			if w == 2 || w == 4 || w == 8 {
				paper := PaperTable4[spec.Name]
				t.AddRow(spec.Name, fmt.Sprintf("%d", w),
					stats.FmtSeconds(paper.Time[w]), stats.FmtSeconds(sec),
					fmt.Sprintf("%+.1f", stats.PctDelta(sec, paper.Time[w])),
					fmt.Sprintf("%.2f", paper.GCUPS[w]),
					fmt.Sprintf("%.2f", stats.GCUPS(cells, sec)))
			}
		}
		t.Series = append(t.Series, series)
	}
	return t
}

// Table5Figure9 regenerates Table V and Figure 9: the homogeneous
// (4500-5000) and heterogeneous (4-35213) query sets against UniProt.
func (r *Runner) Table5Figure9() *Table {
	t := &Table{
		ID:      "Table V / Figure 9",
		Title:   "Homogeneous vs heterogeneous query sets on UniProt",
		Columns: []string{"Set", "Workers", "Paper time", "Model time", "Delta %", "Paper GCUPS", "Model GCUPS"},
	}
	spec := synth.UniProt
	model := r.dbModel(spec)
	sets := []struct {
		name    string
		queries synth.QuerySpec
	}{
		{"Heterogeneous", synth.HeterogeneousQueries()},
		{"Homogeneous", synth.HomogeneousQueries()},
	}
	for _, set := range sets {
		cells := platform.Cells(model, set.queries.Lengths)
		series := Series{Name: set.name + " set"}
		for w := 2; w <= 8; w++ {
			sec, _ := r.swdualRun(spec, set.queries.Lengths, w)
			series.X = append(series.X, float64(w))
			series.Y = append(series.Y, sec)
			if w == 2 || w == 4 || w == 8 {
				paper := PaperTable5[set.name]
				t.AddRow(set.name, fmt.Sprintf("%d", w),
					stats.FmtSeconds(paper.Time[w]), stats.FmtSeconds(sec),
					fmt.Sprintf("%+.1f", stats.PctDelta(sec, paper.Time[w])),
					fmt.Sprintf("%.2f", paper.GCUPS[w]),
					fmt.Sprintf("%.2f", stats.GCUPS(cells, sec)))
			}
		}
		t.Series = append(t.Series, series)
	}
	t.AddNote("heterogeneous query lengths span 4..35213 (UniProt extremes); homogeneous span 4500..5000")
	return t
}

// AblationIdle supports the paper's §V.A claim that SWDUAL finishes "with
// almost no idle time": idle fraction per allocation policy on UniProt
// with 4 GPUs + 4 CPUs.
func (r *Runner) AblationIdle() *Table {
	t := &Table{
		ID:      "Ablation E-A1",
		Title:   "Idle time per allocation policy (UniProt, 4 GPU + 4 CPU)",
		Columns: []string{"Policy", "Makespan (s)", "Idle fraction %", "vs dual-approx"},
	}
	spec := synth.UniProt
	queries := synth.StandardQueries()
	p := platform.New(4, 4)
	in := p.Instance(r.dbModel(spec), queries.Lengths)
	names := []string{"dual-2approx", "self-scheduling", "eft", "proportional-power", "equal-power"}
	base := 0.0
	for _, name := range names {
		s, err := sched.Algorithms[name](in)
		if err != nil {
			panic(err)
		}
		if name == "dual-2approx" {
			base = s.Makespan
		}
		t.AddRow(name, stats.FmtSeconds(s.Makespan),
			fmt.Sprintf("%.2f", 100*s.IdleFraction()),
			fmt.Sprintf("%+.1f%%", stats.PctDelta(s.Makespan, base)))
	}
	return t
}

// AblationSchedulers measures makespan against the certified lower bound
// across random instance families, for every scheduling algorithm.
func (r *Runner) AblationSchedulers() *Table {
	t := &Table{
		ID:      "Ablation E-A2",
		Title:   "Makespan / lower bound by algorithm and instance family (mean of 20)",
		Columns: []string{"Family", "dual-2approx", "self-scheduling", "eft", "proportional-power", "equal-power"},
	}
	families := []struct {
		name string
		gen  func(rng *rand.Rand) *sched.Instance
	}{
		{"uniform speedup 3x", func(rng *rand.Rand) *sched.Instance {
			return genInstance(rng, 40, 4, 4, func(cpu float64) float64 { return cpu / 3 })
		}},
		{"mixed speedups 0.5-8x", func(rng *rand.Rand) *sched.Instance {
			return genInstance(rng, 40, 4, 4, func(cpu float64) float64 { return cpu / (0.5 + rng.Float64()*7.5) })
		}},
		{"bimodal long/short", func(rng *rand.Rand) *sched.Instance {
			in := &sched.Instance{CPUs: 4, GPUs: 4}
			for i := 0; i < 40; i++ {
				cpu := 1 + rng.Float64()
				if i%5 == 0 {
					cpu *= 40
				}
				in.Tasks = append(in.Tasks, sched.Task{ID: i, CPUTime: cpu, GPUTime: cpu / 3})
			}
			return in
		}},
	}
	algos := []string{"dual-2approx", "self-scheduling", "eft", "proportional-power", "equal-power"}
	for _, fam := range families {
		row := []string{fam.name}
		ratios := map[string][]float64{}
		rng := rand.New(rand.NewSource(42))
		for trial := 0; trial < 20; trial++ {
			in := fam.gen(rng)
			lb := sched.LowerBound(in)
			for _, a := range algos {
				s, err := sched.Algorithms[a](in)
				if err != nil {
					panic(err)
				}
				ratios[a] = append(ratios[a], s.Makespan/lb)
			}
		}
		for _, a := range algos {
			row = append(row, fmt.Sprintf("%.3f", stats.Mean(ratios[a])))
		}
		t.AddRow(row...)
	}
	return t
}

func genInstance(rng *rand.Rand, n, m, k int, gpuOf func(cpu float64) float64) *sched.Instance {
	in := &sched.Instance{CPUs: m, GPUs: k}
	for i := 0; i < n; i++ {
		cpu := 0.5 + rng.Float64()*20
		in.Tasks = append(in.Tasks, sched.Task{ID: i, CPUTime: cpu, GPUTime: gpuOf(cpu)})
	}
	return in
}

// FunctionalValidation runs the whole pipeline with real engines on a
// scaled UniProt: a hybrid search through the persistent engine — the
// path users run — whose scores must agree with the striped
// oracle-checked engine, reporting native Go GCUPS.
func (r *Runner) FunctionalValidation() (*Table, error) {
	t := &Table{
		ID:      "Functional validation",
		Title:   fmt.Sprintf("Real-compute hybrid run (UniProt/%d, queries/%d)", r.cfg.FunctionalScale, r.cfg.FunctionalScale/40+1),
		Columns: []string{"Check", "Value"},
	}
	qscale := r.cfg.FunctionalScale/40 + 1
	dbSpec := synth.UniProt.Scaled(r.cfg.FunctionalScale)
	db := dbSpec.Generate()
	queries := synth.StandardQueries().Scaled(qscale).Generate()

	params := sw.DefaultParams()
	gpus, cpus := WorkerSplit(functionalWorkers)
	s, err := engine.New(db, engine.Config{Params: params, Pool: master.PoolSpec{CPU: cpus, GPU: gpus}, TopK: 10})
	if err != nil {
		return nil, err
	}
	defer s.Close()
	rep, err := s.Search(context.Background(), queries, engine.SearchOptions{})
	if err != nil {
		return nil, err
	}
	// Agreement against the independently verified striped engine.
	ref := swvector.NewStriped(params)
	mismatches := 0
	for qi := range queries.Seqs {
		want := master.TopHits(db, ref.Scores(queries.Seqs[qi].Residues, db), 10)
		got := rep.Results[qi].Hits
		if len(got) != len(want) {
			mismatches++
			continue
		}
		for i := range want {
			if got[i].Score != want[i].Score || got[i].SeqIndex != want[i].SeqIndex {
				mismatches++
				break
			}
		}
	}
	t.AddRow("database sequences", fmt.Sprintf("%d", db.Len()))
	t.AddRow("queries", fmt.Sprintf("%d", queries.Len()))
	t.AddRow("workers (gpu+cpu)", fmt.Sprintf("%d+%d", gpus, cpus))
	t.AddRow("cells computed", fmt.Sprintf("%d", rep.Cells))
	t.AddRow("wall time", rep.Wall.String())
	t.AddRow("native GCUPS", fmt.Sprintf("%.3f", rep.GCUPS))
	t.AddRow("score mismatches vs striped oracle", fmt.Sprintf("%d", mismatches))
	if sc := rep.Schedule; sc != nil {
		t.AddRow("scheduled makespan (modeled s)", stats.FmtSeconds(sc.Makespan))
		t.AddRow("scheduled idle fraction", fmt.Sprintf("%.2f%%", 100*sc.IdleFraction()))
	}
	if mismatches > 0 {
		return t, fmt.Errorf("bench: functional validation found %d mismatching queries", mismatches)
	}
	return t, nil
}
