package master

import (
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"swdual/internal/platform"
	"swdual/internal/sched"
	"swdual/internal/sw"
)

// TestMisadvertisedWorkerShiftsAssignments closes the loop: the rates a
// Pool measures feed BuildInstance and must change what the
// dual-approximation policy assigns. A CPU worker advertising 100× its
// real rate first hoards every task; once the pool's estimate of it
// converges, the scheduler moves work to the honestly-advertised GPU
// worker.
func TestMisadvertisedWorkerShiftsAssignments(t *testing.T) {
	cal := platform.PaperCalibration()
	const lying, tasks = 100.0, 30
	cpu := &timedWorker{name: "cpu-liar", kind: sched.CPU, rate: lying * cal.CPUWorkerGCUPS, runs: make([]QueryResult, tasks)}
	for i := range cpu.runs { // tasks complete at the worker's true rate
		cpu.runs[i] = QueryResult{Cells: int64(cal.CPUWorkerGCUPS * 1e9), Elapsed: time.Second}
	}
	gpu := &timedWorker{name: "gpu-0", kind: sched.GPU, rate: cal.GPUWorkerGCUPS}
	p, err := NewPool([]Worker{cpu, gpu})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	const dbResidues = 1 << 20
	queryLens := make([]int, 24)
	ids := make([]string, len(queryLens))
	for i := range queryLens {
		queryLens[i] = 100 + 10*i
	}
	gpuTasks := func() int {
		in := BuildInstance(dbResidues, queryLens, ids, p.Rates())
		queues, _, err := Assign(PolicyDualApprox, in, p.Workers())
		if err != nil {
			t.Fatal(err)
		}
		return len(queues[sched.GPU])
	}

	before := gpuTasks()
	// The lying worker's pool looks ~340× faster than the GPU pool, so
	// the scheduler starves the GPU.
	if before > len(queryLens)/4 {
		t.Fatalf("with the advertised lie the GPU already holds %d of %d tasks", before, len(queryLens))
	}

	runEach(t, p, int(sched.CPU), 0, tasks)
	rates := p.Rates()
	if math.Abs(rates.CPURate-cal.CPUWorkerGCUPS) > 0.05*cal.CPUWorkerGCUPS {
		t.Fatalf("PoolRates still carries the lie: CPU rate %.3f, measured %.3f", rates.CPURate, cal.CPUWorkerGCUPS)
	}
	if RatesOf(p.Workers()).CPURate != lying*cal.CPUWorkerGCUPS {
		t.Fatal("RatesOf must stay the advertised rates")
	}

	after := gpuTasks()
	if after <= before {
		t.Fatalf("assignments did not shift: GPU held %d tasks before convergence, %d after", before, after)
	}
	t.Logf("GPU tasks %d -> %d of %d after the CPU rate converged", before, after, len(queryLens))
}

// TestAssignOnIdleSubPlatform: the engine plans on the idle part of its
// pool, so Assign must take an instance spanning fewer PEs than there
// are workers — every task then lands on the kinds the instance has, in
// planned start order — and refuse one spanning more, whose tasks would
// wait on a queue nobody serves.
func TestAssignOnIdleSubPlatform(t *testing.T) {
	workers := []Worker{
		NewEngineWorker("cpu-0", sched.CPU, nil, 2, 5),
		NewEngineWorker("cpu-1", sched.CPU, nil, 2, 5),
		NewEngineWorker("gpu-0", sched.GPU, nil, 20, 5),
	}
	lens := []int{300, 100, 500, 200, 400}
	rates := RatesOf(workers)
	for _, idle := range []struct {
		cpus, gpus int
		kind       sched.Kind
	}{{1, 0, sched.CPU}, {0, 1, sched.GPU}} { // one kind idle, the other busy
		rates.CPUs, rates.GPUs = idle.cpus, idle.gpus
		in := BuildInstance(1<<20, lens, nil, rates)
		for _, policy := range []Policy{PolicyDualApprox, PolicyRoundRobin} {
			queues, s, err := Assign(policy, in, workers)
			if err != nil {
				t.Fatalf("%v on %d+%d: %v", policy, idle.cpus, idle.gpus, err)
			}
			queue := queues[idle.kind]
			if len(queue) != len(lens) || len(queues[1-idle.kind]) != 0 {
				t.Fatalf("%v on %d+%d: queues %v", policy, idle.cpus, idle.gpus, queues)
			}
			if s == nil {
				t.Fatalf("%v returned no schedule", policy)
			}
			for i, task := range queue[1:] {
				if prev := queue[i]; s.Placements[prev].Start > s.Placements[task].Start {
					t.Fatalf("%v: task %d (start %g) queued before task %d (start %g)", policy,
						prev, s.Placements[prev].Start, task, s.Placements[task].Start)
				}
			}
		}
	}
	// Whole platform: both kinds are used and every task is queued once.
	queues, _, err := Assign(PolicyDualApprox, BuildInstance(1<<20, lens, nil, RatesOf(workers)), workers)
	if err != nil {
		t.Fatal(err)
	}
	if len(queues[sched.CPU])+len(queues[sched.GPU]) != len(lens) || len(queues[sched.GPU]) == 0 {
		t.Fatalf("whole-platform queues %v", queues)
	}
	rates.CPUs, rates.GPUs = 2, 2
	if _, _, err := Assign(PolicyDualApprox, BuildInstance(1<<20, lens, nil, rates), workers); err == nil {
		t.Fatal("an instance with more GPUs than the pool has was accepted")
	}
}

// TestBuildWorkersRatesComeFromCalibration pins worker construction to
// platform.PaperCalibration: the paper's hybrid pool advertises the
// Table II rates, not hardcoded constants.
func TestBuildWorkersRatesComeFromCalibration(t *testing.T) {
	cal := platform.PaperCalibration()
	if cal.GPUWorkerGCUPS != 24.8 {
		t.Fatalf("GPUWorkerGCUPS %.3f, want the Table II 24.8", cal.GPUWorkerGCUPS)
	}
	ws := BuildPoolWorkers(sw.DefaultParams(), PoolSpec{CPU: 2, GPU: 2}, 5)
	if len(ws) != 4 {
		t.Fatalf("%d workers, want 4", len(ws))
	}
	for _, w := range ws {
		want := cal.CPUWorkerGCUPS
		if w.Kind() == sched.GPU {
			want = cal.GPUWorkerGCUPS
		}
		if got := w.RateGCUPS(); got != want {
			t.Errorf("%s advertises %.3f, want calibration %.3f", w.Name(), got, want)
		}
	}
}

func TestBuildPoolWorkersComposition(t *testing.T) {
	spec := PoolSpec{CPU: 2, GPU: 1}
	ws := BuildPoolWorkers(sw.DefaultParams(), spec, 5)
	if len(ws) != spec.Total() {
		t.Fatalf("%d workers for spec %v (total %d)", len(ws), spec, spec.Total())
	}
	wantNames := []string{"gpu-0", "cpu-0", "cpu-1"}
	for i, w := range ws {
		if w.Name() != wantNames[i] {
			t.Errorf("worker %d named %q, want %q", i, w.Name(), wantNames[i])
		}
	}
	r := RatesOf(ws)
	if r.CPUs != spec.CPU || r.GPUs != spec.GPU {
		t.Fatalf("RatesOf pools %d CPU + %d GPU, want %d + %d", r.CPUs, r.GPUs, spec.CPU, spec.GPU)
	}
}

func TestParsePoolSpec(t *testing.T) {
	valid := []struct {
		in   string
		want PoolSpec
	}{
		{"", PoolSpec{}},
		{"cpu=4,gpu=1", PoolSpec{CPU: 4, GPU: 1}},
		{"gpu=1", PoolSpec{GPU: 1}},
		{" cpu=1 , gpu=2 ", PoolSpec{CPU: 1, GPU: 2}},
		{"cpu=1,cpu=2", PoolSpec{CPU: 3}}, // repeated backends accumulate
		{"cpu=0,gpu=1", PoolSpec{GPU: 1}},
	}
	for _, tc := range valid {
		got, err := ParsePoolSpec(tc.in)
		if err != nil {
			t.Errorf("ParsePoolSpec(%q): unexpected error %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParsePoolSpec(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
	}

	malformed := []string{
		"cpu",          // no =
		"cpu=",         // empty count
		"=1",           // empty backend
		"cpu=x",        // non-numeric count
		"cpu=-1",       // negative count
		"tpu=1",        // unknown backend
		"striped=1",    // a Table I baseline, not a serving backend
		"fine=1",       // likewise
		"cpu=0",        // no workers at all
		"cpu=1,,gpu=1", // empty entry
		"cpu=1;gpu=1",  // wrong separator
	}
	for _, in := range malformed {
		if _, err := ParsePoolSpec(in); err == nil {
			t.Errorf("ParsePoolSpec(%q) accepted malformed input", in)
		}
	}

	// Counts add up across entries; an entry that would take the total
	// past the largest int is refused by name, not wrapped negative.
	huge := "cpu=" + strconv.Itoa(math.MaxInt)
	for _, tc := range []struct{ in, entry string }{
		{huge + ",cpu=2", "cpu=2"},
		{huge + ",gpu=1", "gpu=1"},
	} {
		if got, err := ParsePoolSpec(tc.in); err == nil || !strings.Contains(err.Error(), tc.entry) {
			t.Errorf("ParsePoolSpec(%q) = %+v, %v; want an error naming %q", tc.in, got, err, tc.entry)
		}
	}

	// The unknown-backend error must teach the valid grammar.
	for _, in := range []string{"tpu=1", "striped=1", "fine=1"} {
		if _, err := ParsePoolSpec(in); !strings.Contains(err.Error(), "valid backends: cpu, gpu") {
			t.Errorf("ParsePoolSpec(%q) error %q does not list the valid backends cpu, gpu", in, err)
		}
	}
}

func TestPoolSpecString(t *testing.T) {
	for _, tc := range []struct {
		spec PoolSpec
		want string
	}{
		{PoolSpec{}, ""},
		{PoolSpec{CPU: 2, GPU: 1}, "cpu=2,gpu=1"},
		{PoolSpec{GPU: 4}, "gpu=4"},
	} {
		if got := tc.spec.String(); got != tc.want {
			t.Errorf("String(%+v) = %q, want %q", tc.spec, got, tc.want)
		}
		// String output must parse back to the same spec.
		if tc.spec.Total() > 0 {
			back, err := ParsePoolSpec(tc.spec.String())
			if err != nil || back != tc.spec {
				t.Errorf("round trip of %+v failed: %+v, %v", tc.spec, back, err)
			}
		}
	}
}

func TestParsePolicyErrorsEnumerateValidValues(t *testing.T) {
	// Valid names resolve.
	for name, want := range map[string]Policy{
		"":                PolicyDualApprox,
		"dual-approx":     PolicyDualApprox,
		"self-scheduling": PolicySelfScheduling,
		"round-robin":     PolicyRoundRobin,
	} {
		got, err := ParsePolicy(name)
		if err != nil || got != want {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	// Malformed and retired names fail with an error naming every valid
	// policy.
	for _, name := range []string{"dual", "DUAL-APPROX", "self_scheduling", "greedy", "round robin", "dual-approx-dp"} {
		_, err := ParsePolicy(name)
		if err == nil {
			t.Errorf("ParsePolicy(%q) accepted malformed input", name)
			continue
		}
		if !strings.Contains(err.Error(), "(valid policies: dual-approx, self-scheduling, round-robin)") {
			t.Errorf("ParsePolicy(%q) error %q does not list the three valid policies", name, err)
		}
	}
}
