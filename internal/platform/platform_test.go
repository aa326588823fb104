package platform

import (
	"math"
	"testing"

	"swdual/internal/gpusim"
	"swdual/internal/sched"
	"swdual/internal/synth"
)

func TestCalibrationReproducesSingleWorkerRows(t *testing.T) {
	// The single-worker rows of Table II pin the two calibration
	// constants; the modeled sequential runs must land within 1.5%.
	p := New(1, 1)
	model := p.ModelDB("uniprot", synth.UniProt.GenerateLengths())
	queries := synth.StandardQueries()
	cpuTotal, gpuTotal := 0.0, 0.0
	for _, ql := range queries.Lengths {
		cpuTotal += p.CPUSeconds(model, ql)
		gpuTotal += p.GPUSeconds(model, ql)
	}
	if math.Abs(cpuTotal-2367.24)/2367.24 > 0.015 {
		t.Fatalf("1-CPU sequential %g s, paper 2367.24", cpuTotal)
	}
	if math.Abs(gpuTotal-785.26)/785.26 > 0.015 {
		t.Fatalf("1-GPU sequential %g s, paper 785.26", gpuTotal)
	}
}

func TestSWDUALEightWorkersNearPaper(t *testing.T) {
	// The 8-worker SWDUAL row (4 GPU + 4 CPU) is a pure model output; the
	// paper reports 142.98 s. Require the same regime (±15%).
	p := New(4, 4)
	model := p.ModelDB("uniprot", synth.UniProt.GenerateLengths())
	in := p.Instance(model, synth.StandardQueries().Lengths)
	s, err := sched.DualApprox(in)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Makespan-142.98)/142.98 > 0.15 {
		t.Fatalf("8-worker makespan %g s, paper 142.98", s.Makespan)
	}
}

// TestModelDBUsesDevice checks that the database model is built on the
// platform's Device, the one a Kepler ablation swaps in.
func TestModelDBUsesDevice(t *testing.T) {
	lengths := synth.UniProt.Scaled(100).GenerateLengths()
	p := New(1, 1)
	c2050 := p.ModelDB("c2050", lengths)
	p.Device = gpusim.TeslaK20()
	k20 := p.ModelDB("k20", lengths)
	if k20.GPU != gpusim.Model(gpusim.TeslaK20(), lengths) || k20.GPU == c2050.GPU {
		t.Fatalf("K20 platform modeled %+v, C2050 %+v", k20.GPU, c2050.GPU)
	}
}

func TestGPUSecondsScaleWithQueryLength(t *testing.T) {
	p := New(1, 1)
	model := p.ModelDB("dog", synth.EnsemblDog.Scaled(10).GenerateLengths())
	t100 := p.GPUSeconds(model, 100)
	t1000 := p.GPUSeconds(model, 1000)
	if t1000 <= t100 {
		t.Fatal("GPU time must grow with query length")
	}
	ratio := t1000 / t100
	if ratio < 5 || ratio > 11 {
		t.Fatalf("10x query scaled GPU time by %.2f, want near-linear", ratio)
	}
}

func TestContentionMonotone(t *testing.T) {
	p := New(0, 4)
	model := p.ModelDB("dog", synth.EnsemblDog.Scaled(10).GenerateLengths())
	prev := 0.0
	for g := 1; g <= 4; g++ {
		cur := p.GPUSecondsContended(model, 1000, g)
		if cur < prev {
			t.Fatalf("contended time decreased at g=%d", g)
		}
		prev = cur
	}
	if p.GPUSecondsContended(model, 1000, 1) != p.GPUSeconds(model, 1000) {
		t.Fatal("single GPU must be uncontended")
	}
}

func TestInstanceShape(t *testing.T) {
	p := New(2, 3)
	// Full-scale lengths: GPU acceleration requires a database large
	// enough to occupy the device (tiny scaled sets legitimately favor
	// the CPU, see TestTinyDatabaseFavorsCPU).
	model := p.ModelDB("dog", synth.EnsemblDog.GenerateLengths())
	queryLens := []int{100, 200, 300}
	in := p.Instance(model, queryLens)
	if in.CPUs != 2 || in.GPUs != 3 || len(in.Tasks) != 3 {
		t.Fatalf("instance %+v", in)
	}
	for i, task := range in.Tasks {
		if task.CPUTime <= 0 || task.GPUTime <= 0 {
			t.Fatalf("task %d has nonpositive time", i)
		}
		if task.GPUTime >= task.CPUTime {
			t.Fatalf("task %d not accelerated on GPU (%.3g vs %.3g)", i, task.GPUTime, task.CPUTime)
		}
	}
	// Longer queries take longer.
	if in.Tasks[2].CPUTime <= in.Tasks[0].CPUTime {
		t.Fatal("CPU time not monotone in query length")
	}
}

func TestTinyDatabaseFavorsCPU(t *testing.T) {
	// With a few hundred subjects the simulated GPU cannot fill its SMs,
	// so a short query is cheaper on the CPU — the occupancy effect that
	// makes the dual approximation's CPU/GPU split non-trivial.
	p := New(1, 1)
	model := p.ModelDB("tiny-dog", synth.EnsemblDog.Scaled(100).GenerateLengths())
	if gpu, cpu := p.GPUSeconds(model, 100), p.CPUSeconds(model, 100); gpu <= cpu {
		t.Skipf("tiny database already accelerated (gpu %.3g cpu %.3g); occupancy model changed", gpu, cpu)
	}
}

func TestCellsAndGCUPS(t *testing.T) {
	p := New(1, 1)
	model := p.ModelDB("x", []int{100, 200})
	if got := Cells(model, []int{10}); got != 3000 {
		t.Fatalf("cells %d, want 3000", got)
	}
	if GCUPS(2e9, 2) != 1 {
		t.Fatal("GCUPS")
	}
	if GCUPS(1, 0) != 0 {
		t.Fatal("GCUPS with zero time")
	}
}

func TestString(t *testing.T) {
	if got := New(2, 1).String(); got != "2 CPU + 1 GPU" {
		t.Fatalf("String() = %q", got)
	}
}
