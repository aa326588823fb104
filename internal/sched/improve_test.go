package sched

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestImproveNeverWorsens(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for iter := 0; iter < 80; iter++ {
		in := randInstance(rng, 30, 4, 4)
		base, err := SelfScheduling(in)
		if err != nil {
			t.Fatal(err)
		}
		improved := Improve(in, base)
		if err := improved.Verify(in); err != nil {
			t.Fatal(err)
		}
		if improved.Makespan > base.Makespan*(1+1e-12) {
			t.Fatalf("iter %d: improve worsened %g -> %g", iter, base.Makespan, improved.Makespan)
		}
	}
}

func TestImproveFixesObviousImbalance(t *testing.T) {
	// Two identical tasks stacked on one GPU while the other idles: one
	// move halves the makespan.
	in := &Instance{CPUs: 0, GPUs: 2, Tasks: []Task{
		{ID: 0, CPUTime: 100, GPUTime: 5},
		{ID: 1, CPUTime: 100, GPUTime: 5},
	}}
	s := NewSchedule("stacked", in)
	s.place(in, 0, GPU, 0)
	s.place(in, 1, GPU, 0)
	improved := Improve(in, s)
	if improved.Makespan != 5 {
		t.Fatalf("makespan %g, want 5", improved.Makespan)
	}
}

func TestImproveUsesSwaps(t *testing.T) {
	// {7,6} vs {5,4}: no single move helps (any move overloads the
	// target), but swapping 7 with 4 and then 7 with 6 descends
	// 13 -> 12 -> 11, the optimum.
	in := &Instance{CPUs: 0, GPUs: 2, Tasks: []Task{
		{ID: 0, GPUTime: 7, CPUTime: 1e9},
		{ID: 1, GPUTime: 6, CPUTime: 1e9},
		{ID: 2, GPUTime: 5, CPUTime: 1e9},
		{ID: 3, GPUTime: 4, CPUTime: 1e9},
	}}
	s := NewSchedule("bad", in)
	s.place(in, 0, GPU, 0)
	s.place(in, 1, GPU, 0)
	s.place(in, 2, GPU, 1)
	s.place(in, 3, GPU, 1)
	improved := Improve(in, s)
	if improved.Makespan > 11 {
		t.Fatalf("makespan %g after improve, want 11", improved.Makespan)
	}
}

func TestQuickImproveKeepsValidity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randInstance(rng, 15, 3, 3)
		s, err := EqualPower(in)
		if err != nil {
			return false
		}
		improved := Improve(in, s)
		return improved.Verify(in) == nil && improved.Makespan <= s.Makespan*(1+1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestGanttRendering(t *testing.T) {
	in := &Instance{CPUs: 1, GPUs: 1, Tasks: []Task{
		{ID: 0, CPUTime: 4, GPUTime: 2},
		{ID: 1, CPUTime: 4, GPUTime: 2},
	}}
	s, err := DualApprox(in)
	if err != nil {
		t.Fatal(err)
	}
	out := s.Gantt(in, 40)
	if !strings.Contains(out, "GPU0") || !strings.Contains(out, "CPU0") {
		t.Fatalf("gantt missing PE rows:\n%s", out)
	}
	if !strings.Contains(out, "makespan") {
		t.Fatal("gantt missing header")
	}
	empty := NewSchedule("empty", in)
	if !strings.Contains(empty.Gantt(in, 40), "empty") {
		t.Fatal("empty schedule rendering")
	}
}
