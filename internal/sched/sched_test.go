package sched

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randInstance(rng *rand.Rand, maxTasks, maxCPUs, maxGPUs int) *Instance {
	in := &Instance{
		CPUs: 1 + rng.Intn(maxCPUs),
		GPUs: 1 + rng.Intn(maxGPUs),
	}
	n := 1 + rng.Intn(maxTasks)
	for i := 0; i < n; i++ {
		cpu := 0.1 + rng.Float64()*10
		// Mix of accelerated and decelerated tasks.
		speedup := 0.2 + rng.Float64()*8
		in.Tasks = append(in.Tasks, Task{ID: i, CPUTime: cpu, GPUTime: cpu / speedup})
	}
	return in
}

func TestDualApproxAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 120; iter++ {
		in := randInstance(rng, 8, 2, 2)
		opt, err := BruteForce(in)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DualApprox(in)
		if err != nil {
			t.Fatal(err)
		}
		if err := got.Verify(in); err != nil {
			t.Fatal(err)
		}
		if got.Makespan > 2*opt.Makespan*(1+1e-6) {
			t.Fatalf("iter %d: dual approx makespan %g > 2x optimal %g", iter, got.Makespan, opt.Makespan)
		}
		if got.Makespan < opt.Makespan*(1-1e-9) {
			t.Fatalf("iter %d: makespan %g beats the optimum %g — brute force or verify is broken", iter, got.Makespan, opt.Makespan)
		}
	}
}

func TestDualStepNoAnswersAreSound(t *testing.T) {
	// Whenever DualStep answers NO for λ, the brute-force optimum must
	// exceed λ.
	rng := rand.New(rand.NewSource(9))
	for iter := 0; iter < 120; iter++ {
		in := randInstance(rng, 7, 2, 2)
		opt, err := BruteForce(in)
		if err != nil {
			t.Fatal(err)
		}
		for _, frac := range []float64{0.5, 0.8, 0.95, 1.0, 1.1} {
			lambda := opt.Makespan * frac
			res := DualStep(in, lambda)
			if !res.OK && lambda >= opt.Makespan*(1+1e-9) {
				t.Fatalf("iter %d: NO for λ=%g >= OPT=%g", iter, lambda, opt.Makespan)
			}
			if res.OK {
				if err := res.Schedule.Verify(in); err != nil {
					t.Fatal(err)
				}
				if res.Schedule.Makespan > 2*lambda*(1+1e-9) {
					t.Fatalf("iter %d: accepted λ=%g but makespan %g > 2λ", iter, lambda, res.Schedule.Makespan)
				}
			}
		}
	}
}

func TestBaselinesProduceValidSchedules(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 60; iter++ {
		in := randInstance(rng, 20, 4, 4)
		lb := LowerBound(in)
		for name, algo := range Algorithms {
			s, err := algo(in)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if err := s.Verify(in); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if s.Makespan < lb*(1-1e-9) {
				t.Fatalf("%s: makespan %g below lower bound %g", name, s.Makespan, lb)
			}
		}
	}
}

func TestDualApproxWithinTwiceLowerBound(t *testing.T) {
	// On larger instances brute force is unavailable; the certified lower
	// bound still witnesses the 2-approximation.
	rng := rand.New(rand.NewSource(12))
	for iter := 0; iter < 40; iter++ {
		in := randInstance(rng, 200, 8, 8)
		s, err := DualApprox(in)
		if err != nil {
			t.Fatal(err)
		}
		if lb := LowerBound(in); s.Makespan > 2*lb*(1+1e-6) {
			t.Fatalf("iter %d: makespan %g > 2x lower bound %g", iter, s.Makespan, lb)
		}
	}
}

func TestDualApproxBeatsBaselinesOnHeterogeneousTasks(t *testing.T) {
	// The paper's setting: tasks strongly accelerated on GPU, few GPUs,
	// many CPU-bound stragglers; the dual approximation should not lose
	// to equal-power round-robin.
	rng := rand.New(rand.NewSource(13))
	worse := 0
	for iter := 0; iter < 50; iter++ {
		in := &Instance{CPUs: 4, GPUs: 4}
		for i := 0; i < 40; i++ {
			cpu := 1 + rng.Float64()*50
			in.Tasks = append(in.Tasks, Task{ID: i, CPUTime: cpu, GPUTime: cpu / 3})
		}
		dual, err := DualApprox(in)
		if err != nil {
			t.Fatal(err)
		}
		eq, err := EqualPower(in)
		if err != nil {
			t.Fatal(err)
		}
		if dual.Makespan > eq.Makespan*(1+1e-9) {
			worse++
		}
	}
	if worse > 5 {
		t.Fatalf("dual approx lost to equal-power on %d/50 heterogeneous instances", worse)
	}
}

func TestIdleTimeAccounting(t *testing.T) {
	in := &Instance{CPUs: 1, GPUs: 1, Tasks: []Task{
		{ID: 0, CPUTime: 4, GPUTime: 2},
		{ID: 1, CPUTime: 4, GPUTime: 2},
	}}
	s := NewSchedule("manual", in)
	s.place(in, 0, CPU, 0)
	s.place(in, 1, GPU, 0)
	if s.Makespan != 4 {
		t.Fatalf("makespan %g want 4", s.Makespan)
	}
	if got := s.IdleTime(); math.Abs(got-2) > 1e-12 {
		t.Fatalf("idle time %g want 2", got)
	}
	if got := s.IdleFraction(); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("idle fraction %g want 0.25", got)
	}
}

func TestLowerBoundIsValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randInstance(rng, 7, 2, 2)
		opt, err := BruteForce(in)
		if err != nil {
			return false
		}
		return LowerBound(in) <= opt.Makespan*(1+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDualApproxInvariant(t *testing.T) {
	// Property: for arbitrary instances the dual approximation yields a
	// valid schedule within 2x the certified lower bound... the guarantee
	// is against OPT, but OPT >= LowerBound so 2x OPT may exceed 2x LB;
	// we check against brute force when small, LB*2 slack otherwise.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randInstance(rng, 10, 2, 2)
		s, err := DualApprox(in)
		if err != nil {
			return false
		}
		if err := s.Verify(in); err != nil {
			return false
		}
		opt, err := BruteForce(in)
		if err != nil {
			return false
		}
		return s.Makespan <= 2*opt.Makespan*(1+1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyAndDegenerateInstances(t *testing.T) {
	empty := &Instance{CPUs: 2, GPUs: 2}
	s, err := DualApprox(empty)
	if err != nil {
		t.Fatal(err)
	}
	if s.Makespan != 0 {
		t.Fatalf("empty instance makespan %g", s.Makespan)
	}
	single := &Instance{CPUs: 1, GPUs: 0, Tasks: []Task{{ID: 0, CPUTime: 3, GPUTime: 1}}}
	s, err = DualApprox(single)
	if err != nil {
		t.Fatal(err)
	}
	if s.Makespan != 3 {
		t.Fatalf("single CPU makespan %g want 3", s.Makespan)
	}
	if _, err := DualApprox(&Instance{CPUs: 0, GPUs: 0}); err == nil {
		t.Fatal("expected error for platform with no PEs")
	}
}

func TestGPUOnlyAndCPUOnly(t *testing.T) {
	in := &Instance{CPUs: 2, GPUs: 2, Tasks: []Task{
		{ID: 0, CPUTime: 6, GPUTime: 1},
		{ID: 1, CPUTime: 6, GPUTime: 1},
		{ID: 2, CPUTime: 6, GPUTime: 1},
		{ID: 3, CPUTime: 6, GPUTime: 1},
	}}
	gpu, err := GPUOnly(in)
	if err != nil {
		t.Fatal(err)
	}
	if gpu.Makespan != 2 {
		t.Fatalf("gpu-only makespan %g want 2", gpu.Makespan)
	}
	cpu, err := CPUOnly(in)
	if err != nil {
		t.Fatal(err)
	}
	if cpu.Makespan != 12 {
		t.Fatalf("cpu-only makespan %g want 12", cpu.Makespan)
	}
}
