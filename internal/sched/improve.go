package sched

import (
	"fmt"
	"sort"
	"strings"
)

// Improve applies a makespan-descent local search to a schedule: move a
// task off a critical (makespan-defining) PE to wherever it finishes
// earliest, or swap it with a task on another PE, accepting only strict
// improvements. Because every accepted step reduces the makespan, any
// approximation guarantee of the input schedule is preserved. The
// returned schedule is rebuilt from the final assignment with tasks
// packed back-to-back per PE.
//
// DualApprox runs it on its best dual step because the steps alone miss
// the paper's results on the modelled UniProt runs: they leave both 7
// and 8 workers at 170.4 s, where Tables II and IV report 183 and 143 s,
// and 4 GPUs + 4 CPUs 12.8 % idle, where §V.A reports almost none.
func Improve(in *Instance, s *Schedule) *Schedule {
	type slot struct {
		kind Kind
		pe   int
	}
	assign := make([]slot, len(in.Tasks))
	for i, pl := range s.Placements {
		assign[i] = slot{pl.Kind, pl.PE}
	}
	loads := func() (cpu, gpu []float64, makespan float64, critical slot) {
		cpu = make([]float64, in.CPUs)
		gpu = make([]float64, in.GPUs)
		for ti, sl := range assign {
			d := in.Tasks[ti].Time(sl.kind)
			if sl.kind == CPU {
				cpu[sl.pe] += d
			} else {
				gpu[sl.pe] += d
			}
		}
		for pe, l := range cpu {
			if l > makespan {
				makespan, critical = l, slot{CPU, pe}
			}
		}
		for pe, l := range gpu {
			if l > makespan {
				makespan, critical = l, slot{GPU, pe}
			}
		}
		return cpu, gpu, makespan, critical
	}

	for pass := 0; pass < 4*len(in.Tasks)+8; pass++ {
		cpu, gpu, makespan, crit := loads()
		improved := false
		// Tasks on the critical PE, longest first.
		var critTasks []int
		for ti, sl := range assign {
			if sl == crit {
				critTasks = append(critTasks, ti)
			}
		}
		sort.Slice(critTasks, func(a, b int) bool {
			return in.Tasks[critTasks[a]].Time(crit.kind) > in.Tasks[critTasks[b]].Time(crit.kind)
		})
		loadOf := func(sl slot) float64 {
			if sl.kind == CPU {
				return cpu[sl.pe]
			}
			return gpu[sl.pe]
		}
	moves:
		for _, ti := range critTasks {
			d := in.Tasks[ti].Time(crit.kind)
			// Move: does any other PE finish this task before the
			// current makespan, with the critical PE also dropping?
			try := func(dst slot) bool {
				if dst == crit {
					return false
				}
				nd := in.Tasks[ti].Time(dst.kind)
				newDst := loadOf(dst) + nd
				newCrit := makespan - d
				if newDst < makespan && newCrit < makespan {
					assign[ti] = dst
					return true
				}
				return false
			}
			for pe := 0; pe < in.CPUs; pe++ {
				if try(slot{CPU, pe}) {
					improved = true
					break moves
				}
			}
			for pe := 0; pe < in.GPUs; pe++ {
				if try(slot{GPU, pe}) {
					improved = true
					break moves
				}
			}
			// Swap with a task elsewhere.
			for tj, slj := range assign {
				if slj == crit {
					continue
				}
				dj := in.Tasks[tj].Time(slj.kind)
				newCrit := makespan - d + in.Tasks[tj].Time(crit.kind)
				newOther := loadOf(slj) - dj + in.Tasks[ti].Time(slj.kind)
				if newCrit < makespan && newOther < makespan {
					assign[ti], assign[tj] = slj, crit
					improved = true
					break moves
				}
			}
		}
		if !improved {
			break
		}
	}

	out := NewSchedule(s.Algorithm+"+ls", in)
	// Rebuild deterministically: per PE in task order.
	for ti, sl := range assign {
		out.place(in, ti, sl.kind, sl.pe)
	}
	if out.Makespan > s.Makespan {
		return s // defensive: never worsen
	}
	return out
}

// Gantt renders the schedule as a text Gantt chart with the given width
// in character cells, one row per PE.
func (s *Schedule) Gantt(in *Instance, width int) string {
	if width <= 10 {
		width = 72
	}
	if s.Makespan <= 0 {
		return "(empty schedule)\n"
	}
	scale := float64(width) / s.Makespan
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s: makespan %.3f, idle %.1f%%\n", s.Algorithm, s.Makespan, 100*s.IdleFraction())
	row := func(kind Kind, pe int) {
		cells := make([]byte, width)
		for i := range cells {
			cells[i] = '.'
		}
		for _, pl := range s.Placements {
			if pl.Kind != kind || pl.PE != pe {
				continue
			}
			lo := int(pl.Start * scale)
			hi := int(pl.End * scale)
			if hi > width {
				hi = width
			}
			mark := byte('a' + byte(pl.Task%26))
			for i := lo; i < hi; i++ {
				cells[i] = mark
			}
		}
		fmt.Fprintf(&sb, "%s%-2d |%s|\n", kind, pe, cells)
	}
	for pe := 0; pe < in.GPUs; pe++ {
		row(GPU, pe)
	}
	for pe := 0; pe < in.CPUs; pe++ {
		row(CPU, pe)
	}
	return sb.String()
}
