package master

import (
	"math"
	"strings"
	"testing"
	"time"

	"swdual/internal/platform"
	"swdual/internal/sched"
	"swdual/internal/sw"
)

func TestRateEstimatorSeedAndObservation(t *testing.T) {
	e := NewRateEstimator(24.8)
	if got := e.MeasuredRateGCUPS(); got != 24.8 {
		t.Fatalf("seed estimate %.3f, want the advertised 24.8", got)
	}
	if e.ObservedTasks() != 0 {
		t.Fatalf("fresh estimator reports %d observed tasks", e.ObservedTasks())
	}
	// One task at exactly 24.8 GCUPS keeps the estimate fixed.
	e.ObserveTask(24_800_000_000, time.Second)
	if got := e.MeasuredRateGCUPS(); math.Abs(got-24.8) > 1e-9 {
		t.Fatalf("estimate moved to %.6f on an observation equal to the seed", got)
	}
	if e.ObservedTasks() != 1 {
		t.Fatalf("observed tasks %d, want 1", e.ObservedTasks())
	}
	// Degenerate observations carry no signal and must be ignored.
	e.ObserveTask(0, time.Second)
	e.ObserveTask(1000, 0)
	e.ObserveTask(-5, time.Second)
	if e.ObservedTasks() != 1 {
		t.Fatalf("degenerate observations were counted: %d tasks", e.ObservedTasks())
	}
}

// TestRateEstimatorConvergesFromMisadvertisedSeed is the convergence
// guarantee the adaptive scheduler rests on: a worker advertising a rate
// 100× its real throughput must see its estimate reach the measured
// rate within a few dozen tasks.
func TestRateEstimatorConvergesFromMisadvertisedSeed(t *testing.T) {
	const advertised, measured = 100.0, 1.0 // GCUPS; 100× too fast
	e := NewRateEstimator(advertised)
	const maxTasks = 40
	converged := -1
	for i := 1; i <= maxTasks; i++ {
		e.ObserveTask(int64(measured*1e9), time.Second)
		if got := e.MeasuredRateGCUPS(); math.Abs(got-measured) <= 0.05*measured {
			converged = i
			break
		}
	}
	if converged < 0 {
		t.Fatalf("estimate still %.3f after %d tasks at %.1f GCUPS (advertised %.1f)",
			e.MeasuredRateGCUPS(), maxTasks, measured, advertised)
	}
	t.Logf("converged to within 5%% of the measured rate after %d tasks", converged)
}

// TestMisadvertisedWorkerShiftsAssignments closes the loop: the
// estimator feeding RatesOf/BuildInstance must change what the
// dual-approximation policy assigns. A CPU worker advertising 100× its
// real rate first hoards every task; once its observed rate converges,
// BuildInstance sees the corrected PoolRates and the scheduler moves
// work to the honestly-advertised GPU worker.
func TestMisadvertisedWorkerShiftsAssignments(t *testing.T) {
	cal := platform.PaperCalibration()
	const lying = 100.0
	// Engines stay nil: the test never runs a task, it only schedules.
	cpu := NewEngineWorker("cpu-liar", sched.CPU, nil, lying*cal.CPUWorkerGCUPS, 5)
	gpu := NewEngineWorker("gpu-0", sched.GPU, nil, cal.GPUWorkerGCUPS, 5)
	workers := []Worker{cpu, gpu}

	const dbResidues = 1 << 20
	queryLens := make([]int, 24)
	ids := make([]string, len(queryLens))
	for i := range queryLens {
		queryLens[i] = 100 + 10*i
	}
	gpuTasks := func() int {
		in := BuildInstance(dbResidues, queryLens, ids, RatesOf(workers))
		queues, _, err := Assign(PolicyDualApprox, in, workers)
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

	// Tasks complete at the worker's true rate; the EWMA converges.
	for i := 0; i < 30; i++ {
		cpu.ObserveTask(int64(cal.CPUWorkerGCUPS*1e9), time.Second)
	}
	rates := RatesOf(workers)
	if math.Abs(rates.CPURate-cal.CPUWorkerGCUPS) > 0.05*cal.CPUWorkerGCUPS {
		t.Fatalf("PoolRates still carries the lie: CPU rate %.3f, measured %.3f", rates.CPURate, cal.CPUWorkerGCUPS)
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
		for _, policy := range []Policy{PolicyDualApprox, PolicyDualApproxDP, PolicyRoundRobin} {
			queues, s, err := Assign(policy, in, workers)
			if err != nil {
				t.Fatalf("%v on %d+%d: %v", policy, idle.cpus, idle.gpus, err)
			}
			queue := queues[idle.kind]
			if len(queue) != len(lens) || len(queues[1-idle.kind]) != 0 {
				t.Fatalf("%v on %d+%d: queues %v", policy, idle.cpus, idle.gpus, queues)
			}
			if s == nil {
				continue
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
		"dual-approx-dp":  PolicyDualApproxDP,
		"self-scheduling": PolicySelfScheduling,
		"round-robin":     PolicyRoundRobin,
	} {
		got, err := ParsePolicy(name)
		if err != nil || got != want {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	// Malformed names fail with an error naming every valid policy.
	for _, name := range []string{"dual", "DUAL-APPROX", "self_scheduling", "greedy", "round robin"} {
		_, err := ParsePolicy(name)
		if err == nil {
			t.Errorf("ParsePolicy(%q) accepted malformed input", name)
			continue
		}
		for _, valid := range []string{"dual-approx", "dual-approx-dp", "self-scheduling", "round-robin"} {
			if !strings.Contains(err.Error(), valid) {
				t.Errorf("ParsePolicy(%q) error %q does not list valid policy %q", name, err, valid)
			}
		}
	}
}
