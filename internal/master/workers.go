package master

import (
	"fmt"
	"strconv"
	"strings"

	"swdual/internal/cudasw"
	"swdual/internal/gpusim"
	"swdual/internal/platform"
	"swdual/internal/sched"
	"swdual/internal/sw"
	"swdual/internal/swpar"
	"swdual/internal/swvector"
)

// PoolSpec counts the workers of each backend in a (possibly
// heterogeneous) pool. All CPU-side backends compute exact scores with
// different engines, so mixing them changes throughput and scheduling,
// never results.
type PoolSpec struct {
	// CPU workers run the SWIPE-style inter-sequence engine
	// (swvector.InterSeq: AVX2 on amd64, SWAR elsewhere), the paper's
	// CPU backend.
	CPU int
	// Striped workers run the Farrar-style striped SWAR engine
	// (swvector.Striped).
	Striped int
	// Fine workers run the fine-grained column-block wavefront engine
	// (swpar), which parallelizes inside a single comparison.
	Fine int
	// GPU workers run the CUDASW++-style engine, each on its own
	// simulated Tesla C2050.
	GPU int
}

// poolSpecBackends enumerates the spec grammar's backend names in
// canonical order; error messages and String list them from here.
var poolSpecBackends = []string{"cpu", "striped", "fine", "gpu"}

// Total returns the worker count the spec describes.
func (s PoolSpec) Total() int { return s.CPU + s.Striped + s.Fine + s.GPU }

// CPUWorkers returns how many workers join the CPU scheduling pool
// (every CPU-side backend: cpu, striped, fine).
func (s PoolSpec) CPUWorkers() int { return s.CPU + s.Striped + s.Fine }

// GPUWorkers returns how many workers join the GPU scheduling pool.
func (s PoolSpec) GPUWorkers() int { return s.GPU }

// String renders the spec in ParsePoolSpec grammar, omitting zero
// backends ("" for an empty spec).
func (s PoolSpec) String() string {
	var parts []string
	for _, b := range poolSpecBackends {
		if n := s.count(b); n > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", b, n))
		}
	}
	return strings.Join(parts, ",")
}

func (s PoolSpec) count(backend string) int {
	switch backend {
	case "cpu":
		return s.CPU
	case "striped":
		return s.Striped
	case "fine":
		return s.Fine
	case "gpu":
		return s.GPU
	}
	return 0
}

// ParsePoolSpec parses a worker-pool spec like "cpu=4,striped=2,gpu=1":
// comma-separated backend=count pairs, where backend is one of cpu
// (inter-sequence AVX2 or SWAR), striped (striped SWAR), fine (fine-grained
// wavefront) or gpu (simulated Tesla C2050), and count is a
// non-negative integer. Repeated backends accumulate. The empty string
// parses to the zero spec (no pool requested); a non-empty spec must
// name at least one worker.
func ParsePoolSpec(spec string) (PoolSpec, error) {
	var s PoolSpec
	if spec == "" {
		return s, nil
	}
	valid := strings.Join(poolSpecBackends, ", ")
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		backend, value, ok := strings.Cut(part, "=")
		if !ok || backend == "" || value == "" {
			return PoolSpec{}, fmt.Errorf("master: pool spec %q: entry %q is not backend=count (valid backends: %s)", spec, part, valid)
		}
		n, err := strconv.Atoi(value)
		if err != nil || n < 0 {
			return PoolSpec{}, fmt.Errorf("master: pool spec %q: count %q of backend %q must be a non-negative integer", spec, value, backend)
		}
		switch backend {
		case "cpu":
			s.CPU += n
		case "striped":
			s.Striped += n
		case "fine":
			s.Fine += n
		case "gpu":
			s.GPU += n
		default:
			return PoolSpec{}, fmt.Errorf("master: pool spec %q: unknown backend %q (valid backends: %s)", spec, backend, valid)
		}
	}
	if s.Total() == 0 {
		return PoolSpec{}, fmt.Errorf("master: pool spec %q names no workers (give at least one backend a positive count)", spec)
	}
	return s, nil
}

// BuildPoolWorkers assembles the worker set a PoolSpec describes, in a
// deterministic order: GPU workers first, then cpu, striped, fine.
// Advertised rates seed each worker's measured-rate estimate: GPU and
// inter-sequence CPU workers advertise their paper-calibrated Table II
// rates; the striped and fine-grained backends have no paper
// calibration, so they also seed from the CPU rate and rely on the
// estimator to converge to their true throughput as tasks complete.
func BuildPoolWorkers(params sw.Params, spec PoolSpec, topK int) []Worker {
	cal := platform.PaperCalibration()
	var ws []Worker
	for i := 0; i < spec.GPU; i++ {
		eng := cudasw.New(gpusim.New(gpusim.TeslaC2050()), params)
		ws = append(ws, NewGPUWorker(fmt.Sprintf("gpu-%d", i), eng, cal.GPUWorkerGCUPS, topK))
	}
	for i := 0; i < spec.CPU; i++ {
		ws = append(ws, NewEngineWorker(fmt.Sprintf("cpu-%d", i), sched.CPU,
			swvector.NewInterSeq(params), cal.CPUWorkerGCUPS, topK))
	}
	for i := 0; i < spec.Striped; i++ {
		ws = append(ws, NewEngineWorker(fmt.Sprintf("striped-%d", i), sched.CPU,
			swvector.NewStriped(params), cal.CPUWorkerGCUPS, topK))
	}
	for i := 0; i < spec.Fine; i++ {
		ws = append(ws, NewEngineWorker(fmt.Sprintf("fine-%d", i), sched.CPU,
			swpar.NewEngine(params, swpar.Config{}), cal.CPUWorkerGCUPS, topK))
	}
	return ws
}
