package bench

import (
	"swdual/internal/sw"
	"swdual/internal/swvector"
)

// The paper's published measurements, embedded so every regenerated table
// can print paper-vs-model deltas (cmd/benchtables prints them).

// PaperTable2 holds Table II: execution times in seconds on UniProt with
// 40 queries, indexed by application name then worker count.
var PaperTable2 = map[string]map[int]float64{
	"SWPS3":    {1: 69208.2, 2: 36174.09, 3: 25206.563, 4: 18904.31},
	"STRIPED":  {1: 7190, 2: 3615.38, 3: 1369.33, 4: 1027.28},
	"SWIPE":    {1: 2367.24, 2: 1199.47, 3: 816.61, 4: 610.23},
	"CUDASW++": {1: 785.26, 2: 445.611, 3: 350.09, 4: 292.157},
	"SWDUAL":   {2: 543.28, 3: 472.84, 4: 271.98, 5: 266.69, 6: 239.04, 7: 183.12, 8: 142.98},
}

// PaperTable4Row is one database row of Table IV: time and GCUPS for 2, 4
// and 8 workers.
type PaperTable4Row struct {
	Time  map[int]float64
	GCUPS map[int]float64
}

// PaperTable4 holds Table IV (SWDUAL on the five databases).
var PaperTable4 = map[string]PaperTable4Row{
	"Ensembl Dog Proteins": {
		Time:  map[int]float64{2: 78.36, 4: 39.63, 8: 20.45},
		GCUPS: map[int]float64{2: 18.91, 4: 37.39, 8: 72.45},
	},
	"Ensembl Rat Proteins": {
		Time:  map[int]float64{2: 75.85, 4: 37.97, 8: 20.17},
		GCUPS: map[int]float64{2: 22.97, 4: 45.89, 8: 86.38},
	},
	"RefSeq Mouse Proteins": {
		Time:  map[int]float64{2: 84.40, 4: 46.25, 8: 23.59},
		GCUPS: map[int]float64{2: 18.99, 4: 34.66, 8: 67.95},
	},
	"RefSeq Human Proteins": {
		Time:  map[int]float64{2: 95.09, 4: 48.01, 8: 24.82},
		GCUPS: map[int]float64{2: 20.70, 4: 41.00, 8: 79.31},
	},
	"UniProt": {
		Time:  map[int]float64{2: 543.28, 4: 271.98, 8: 142.98},
		GCUPS: map[int]float64{2: 35.81, 4: 71.53, 8: 136.06},
	},
}

// PaperTable5 holds Table V (homogeneous vs heterogeneous query sets on
// UniProt).
var PaperTable5 = map[string]PaperTable4Row{
	"Heterogeneous": {
		Time:  map[int]float64{2: 3554.36, 4: 1785.73, 8: 908.45},
		GCUPS: map[int]float64{2: 37.55, 4: 74.74, 8: 146.92},
	},
	"Homogeneous": {
		Time:  map[int]float64{2: 998.27, 4: 484.74, 8: 249.69},
		GCUPS: map[int]float64{2: 36.3, 4: 74.76, 8: 145.14},
	},
}

// PaperApplication is one row of Table I.
type PaperApplication struct {
	Name    string
	Version string
	Command string
	// OurAnalogue names the module that stands in for the application in
	// this reproduction.
	OurAnalogue string
}

// PaperTable1 holds Table I with the reproduction mapping appended. The
// SWIPE row names the column kernel InterSeq runs on this machine.
var PaperTable1 = []PaperApplication{
	{"SWIPE", "1.0", "./swipe -a $T -i $Q -d $D", "internal/swvector InterSeq (" + swvector.NewInterSeq(sw.DefaultParams()).Name() + ")"},
	{"STRIPED", "-", "./striped -T $T $Q $D", "internal/swvector Striped (Farrar SWAR)"},
	{"SWPS3", "20080605", "./swps3 -j $T $Q $D", "internal/sw Scalar (scalar Gotoh reference)"},
	{"CUDASW++", "2.0", "./cudasw -use_gpus $T -query $Q -db $D", "internal/gpusim cycle model (C2050)"},
	{"SWDUAL", "this work", "swdual -plan -pool cpu=$C,gpu=$G -query $Q -db $D", "root package swdual (dual-approximation hybrid)"},
}

// WorkerSplit returns the paper's worker composition for SWDUAL: "the
// first four workers used were GPUs and the last four workers were CPUs";
// the runs start at two workers with one of each.
//
//	2 -> 1 GPU + 1 CPU,  3 -> 2 GPU + 1 CPU,  4 -> 3 GPU + 1 CPU,
//	5..8 -> 4 GPU + (w-4) CPU.
func WorkerSplit(workers int) (gpus, cpus int) {
	switch {
	case workers < 2:
		return workers, 0
	case workers == 2:
		return 1, 1
	case workers <= 4:
		return workers - 1, 1
	default:
		g := 4
		c := workers - 4
		return g, c
	}
}
