package bench

import (
	"fmt"

	"swdual/internal/gpusim"
	"swdual/internal/platform"
	"swdual/internal/sched"
	"swdual/internal/stats"
	"swdual/internal/synth"
)

// AblationKepler answers the paper's implicit forward-looking question:
// how does the dual approximation's CPU/GPU split shift when the GPUs
// get a generation faster? It re-plans the UniProt search with the
// simulated Tesla K20 in place of the C2050 and reports, per worker
// count, the makespan, throughput, and how many of the 40 tasks the
// knapsack still leaves on the CPUs. As the GPU/CPU speed ratio grows,
// the scheduler should starve the CPUs — the crossover the dual
// approximation navigates automatically.
func (r *Runner) AblationKepler() *Table {
	t := &Table{
		ID:      "Ablation E-A3",
		Title:   "SWDUAL with next-generation GPUs (Tesla K20 model, UniProt)",
		Columns: []string{"Device", "Workers", "Makespan (s)", "GCUPS", "CPU tasks", "GPU tasks", "Idle %"},
	}
	queries := synth.StandardQueries()
	lengths := synth.UniProt.GenerateLengths()
	devices := []struct {
		name string
		cfg  gpusim.DeviceConfig
	}{
		{"C2050", gpusim.TeslaC2050()},
		{"K20", gpusim.TeslaK20()},
	}
	for _, dev := range devices {
		// The database model depends on the device, not on the platform
		// shape, so one per device serves every worker count.
		p := platform.New(0, 0)
		p.Device = dev.cfg
		model := p.ModelDB("uniprot-"+dev.name, lengths)
		for _, w := range []int{2, 4, 8} {
			p.GPUs, p.CPUs = WorkerSplit(w)
			in := p.Instance(model, queries.Lengths)
			s, err := sched.DualApprox(in)
			if err != nil {
				panic(err)
			}
			cpuTasks := 0
			for _, pl := range s.Placements {
				if pl.Kind == sched.CPU {
					cpuTasks++
				}
			}
			cells := platform.Cells(model, queries.Lengths)
			t.AddRow(dev.name, fmt.Sprintf("%d", w),
				stats.FmtSeconds(s.Makespan),
				fmt.Sprintf("%.2f", stats.GCUPS(cells, s.Makespan)),
				fmt.Sprintf("%d", cpuTasks),
				fmt.Sprintf("%d", len(in.Tasks)-cpuTasks),
				fmt.Sprintf("%.2f", 100*s.IdleFraction()))
		}
	}
	t.AddNote("same calibration constants as Table II; only the device model changes")
	return t
}
