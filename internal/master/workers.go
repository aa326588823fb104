package master

import (
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"

	"swdual/internal/platform"
	"swdual/internal/sched"
	"swdual/internal/sw"
	"swdual/internal/swvector"
)

// PoolSpec counts the workers of each backend in a (possibly
// heterogeneous) pool: the paper's platform of m CPUs and k GPUs. Both
// backends score with the same kernel, so mixing them changes throughput
// and scheduling, never results.
type PoolSpec struct {
	// CPU workers run the SWIPE-style inter-sequence engine
	// (swvector.InterSeq: AVX2 on amd64, SWAR elsewhere), the paper's
	// CPU backend.
	CPU int
	// GPU counts the modelled Tesla C2050s a plan schedules. A GPU-kind
	// worker scores with the same engine at the calibrated C2050 rate;
	// only tests of mixed-kind dispatch run one.
	GPU int
}

// DefaultPool is the pool an empty spec selects, sized from the host.
func DefaultPool() PoolSpec { return PoolSpec{CPU: runtime.GOMAXPROCS(0)} }

// validBackends lists the spec grammar's backend names for error
// messages.
const validBackends = "cpu, gpu"

// Total returns the worker count the spec describes.
func (s PoolSpec) Total() int { return s.CPU + s.GPU }

// String renders the spec in ParsePoolSpec grammar, omitting zero
// backends ("" for an empty spec).
func (s PoolSpec) String() string {
	var parts []string
	if s.CPU > 0 {
		parts = append(parts, fmt.Sprintf("cpu=%d", s.CPU))
	}
	if s.GPU > 0 {
		parts = append(parts, fmt.Sprintf("gpu=%d", s.GPU))
	}
	return strings.Join(parts, ",")
}

// ParsePoolSpec parses a worker-pool spec like "cpu=4,gpu=1":
// comma-separated backend=count pairs, where backend is cpu
// (inter-sequence AVX2 or SWAR) or gpu (modelled Tesla C2050), and
// count is a non-negative integer. Repeated backends accumulate, up to
// the largest int in total. The
// empty string parses to the zero spec (no pool requested); a non-empty
// spec must name at least one worker.
func ParsePoolSpec(spec string) (PoolSpec, error) {
	var s PoolSpec
	if spec == "" {
		return s, nil
	}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		backend, value, ok := strings.Cut(part, "=")
		if !ok || backend == "" || value == "" {
			return PoolSpec{}, fmt.Errorf("master: pool spec %q: entry %q is not backend=count (valid backends: %s)", spec, part, validBackends)
		}
		n, err := strconv.Atoi(value)
		if err != nil || n < 0 {
			return PoolSpec{}, fmt.Errorf("master: pool spec %q: count %q of backend %q must be a non-negative integer", spec, value, backend)
		}
		if n > math.MaxInt-s.Total() {
			return PoolSpec{}, fmt.Errorf("master: pool spec %q: entry %q takes the worker count past %d", spec, part, math.MaxInt)
		}
		switch backend {
		case "cpu":
			s.CPU += n
		case "gpu":
			s.GPU += n
		default:
			return PoolSpec{}, fmt.Errorf("master: pool spec %q: unknown backend %q (valid backends: %s)", spec, backend, validBackends)
		}
	}
	if s.Total() == 0 {
		return PoolSpec{}, fmt.Errorf("master: pool spec %q names no workers (give at least one backend a positive count)", spec)
	}
	return s, nil
}

// BuildPoolWorkers assembles the worker set a PoolSpec describes, in a
// deterministic order: GPU workers first, then CPU. Each worker's
// paper-calibrated Table II rate is its advertised rate, which seeds
// a Pool's measured-rate estimate. All workers, GPU-kind ones included,
// score with one shared InterSeq, which is safe for concurrent use, so
// that the lane plan of a database is built once for all of them.
func BuildPoolWorkers(params sw.Params, spec PoolSpec, topK int) []Worker {
	cal := platform.PaperCalibration()
	kernel := swvector.NewInterSeq(params)
	var ws []Worker
	for i := 0; i < spec.GPU; i++ {
		ws = append(ws, NewEngineWorker(fmt.Sprintf("gpu-%d", i), sched.GPU, kernel, cal.GPUWorkerGCUPS, topK))
	}
	for i := 0; i < spec.CPU; i++ {
		ws = append(ws, NewEngineWorker(fmt.Sprintf("cpu-%d", i), sched.CPU, kernel, cal.CPUWorkerGCUPS, topK))
	}
	return ws
}
