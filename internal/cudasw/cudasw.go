// Package cudasw implements a CUDASW++ 2.0-style Smith-Waterman database
// search engine on the simulated GPU of package gpusim.
//
// Like CUDASW++ 2.0 ([7] in the paper) it uses two kernels:
//
//   - an inter-task kernel for ordinary subjects: each thread aligns the
//     query to one subject; subjects are sorted by length and packed 32 to
//     a warp so lock-step divergence (a warp pays for its longest lane) is
//     minimized;
//   - an intra-task kernel for very long subjects (> IntraThreshold),
//     where the whole device cooperates on one comparison in anti-diagonal
//     wavefronts at reduced efficiency.
//
// Scores are computed functionally with the SWAR kernels of package
// swvector (escalating to the scalar oracle on overflow), so results are
// exact; the simulated time follows the cycle model calibrated against the
// paper's single-GPU CUDASW++ measurements (bench.PaperTable2).
package cudasw

import (
	"sort"

	"swdual/internal/gpusim"
	"swdual/internal/scoring"
	"swdual/internal/seq"
	"swdual/internal/sw"
	"swdual/internal/swvector"
)

// Config tunes the engine. The zero value is not valid; use DefaultConfig.
type Config struct {
	// WarpsPerBlock groups warps into thread blocks (4 = 128 threads).
	WarpsPerBlock int
	// IntraThreshold is the subject length above which the intra-task
	// kernel is used (CUDASW++ 2.0 uses 3072).
	IntraThreshold int
	// CyclesPerCell is the warp instruction cost of one DP cell per
	// thread. 20.2 cycles reproduces the paper's single-GPU CUDASW++
	// time (785.26 s on UniProt => ~24.8 GCUPS per C2050).
	CyclesPerCell float64
	// IntraEfficiency discounts the intra-task wavefront kernel for its
	// fill/drain and synchronization losses.
	IntraEfficiency float64
	// MaxChunkResidues bounds the database residues shipped per launch
	// (device memory chunking). 0 means derive from device memory.
	MaxChunkResidues int64
}

// DefaultConfig returns the calibrated configuration.
func DefaultConfig() Config {
	return Config{
		WarpsPerBlock:   4,
		IntraThreshold:  3072,
		CyclesPerCell:   20.2,
		IntraEfficiency: 0.6,
	}
}

// Stats summarizes one database search on the simulated device.
type Stats struct {
	Launches     int
	KernelSec    float64
	TransferSec  float64
	TotalSec     float64
	Cells        int64
	GCUPS        float64
	Utilization  float64 // cycle-weighted mean over launches
	InterSubject int
	IntraSubject int
}

// Engine is a CUDASW++-style engine bound to one simulated device.
type Engine struct {
	dev    *gpusim.Device
	params sw.Params
	cfg    Config
}

// New builds an engine with the default configuration.
func New(dev *gpusim.Device, params sw.Params) *Engine {
	return NewWithConfig(dev, params, DefaultConfig())
}

// NewWithConfig builds an engine with an explicit configuration.
func NewWithConfig(dev *gpusim.Device, params sw.Params, cfg Config) *Engine {
	if cfg.WarpsPerBlock <= 0 {
		cfg.WarpsPerBlock = 4
	}
	if cfg.IntraThreshold <= 0 {
		cfg.IntraThreshold = 3072
	}
	if cfg.CyclesPerCell <= 0 {
		cfg.CyclesPerCell = 20.2
	}
	if cfg.IntraEfficiency <= 0 || cfg.IntraEfficiency > 1 {
		cfg.IntraEfficiency = 0.6
	}
	if cfg.MaxChunkResidues <= 0 {
		// Keep subjects + profile + result buffers within half the device
		// memory, the same rule CUDASW++ applies.
		cfg.MaxChunkResidues = dev.Config().MemBytes / 2
	}
	return &Engine{dev: dev, params: params, cfg: cfg}
}

// Name implements sw.Engine.
func (e *Engine) Name() string { return "cudasw-sim" }

// Scores implements sw.Engine.
func (e *Engine) Scores(query []byte, db *seq.Set) []int {
	scores, _ := e.Search(query, db)
	return scores
}

// Search computes all scores and returns the simulated timing statistics.
func (e *Engine) Search(query []byte, db *seq.Set) ([]int, Stats) {
	out := make([]int, db.Len())
	var st Stats
	if len(query) == 0 || db.Len() == 0 {
		return out, st
	}
	scorer := newScorer(e.params, query)
	var weightedUtil float64
	var cycleSum uint64
	for _, pl := range e.plan(len(query), lengthsOf(db)) {
		blocks := make([]*gpusim.Block, len(pl.blocks))
		for bi, pb := range pl.blocks {
			b := &gpusim.Block{}
			for _, pw := range pb {
				b.Warps = append(b.Warps, &scoreWarp{scorer: scorer, db: db, out: out, subjects: pw.subjects, cycles: pw.cycles})
			}
			blocks[bi] = b
		}
		ls := e.dev.Launch(blocks, pl.transferBytes)
		st.Launches++
		st.KernelSec += ls.KernelSec
		st.TransferSec += ls.TransferSec
		st.TotalSec += ls.TotalSec
		weightedUtil += ls.Utilization * float64(ls.CyclesTotal)
		cycleSum += ls.CyclesTotal
	}
	st.Cells = sw.SetCells(len(query), db)
	if st.TotalSec > 0 {
		st.GCUPS = float64(st.Cells) / st.TotalSec / 1e9
	}
	if cycleSum > 0 {
		st.Utilization = weightedUtil / float64(cycleSum)
	}
	st.InterSubject, st.IntraSubject = e.splitCounts(lengthsOf(db))
	return out, st
}

// PredictSeconds returns the simulated wall time of a search given only
// the query length and subject lengths — the platform cost model's entry
// point at paper scale. It charges exactly the cycles Search would.
func (e *Engine) PredictSeconds(queryLen int, subjectLengths []int) float64 {
	if queryLen == 0 || len(subjectLengths) == 0 {
		return 0
	}
	total := 0.0
	for _, pl := range e.plan(queryLen, subjectLengths) {
		var blockCycles []uint64
		for _, pb := range pl.blocks {
			var c uint64
			for _, pw := range pb {
				c += pw.cycles
			}
			blockCycles = append(blockCycles, c)
		}
		total += e.dev.PredictKernelSec(blockCycles)
		total += float64(pl.transferBytes) / e.dev.Config().PCIeBytesPerSec
		total += e.dev.Config().LaunchOverheadSec
	}
	return total
}

func (e *Engine) splitCounts(lengths []int) (inter, intra int) {
	for _, l := range lengths {
		if l > e.cfg.IntraThreshold {
			intra++
		} else {
			inter++
		}
	}
	return inter, intra
}

// planWarp is one planned warp: subject indexes plus cycle cost.
type planWarp struct {
	subjects []int
	cycles   uint64
}

// planLaunch is one planned kernel launch.
type planLaunch struct {
	blocks        [][]planWarp
	transferBytes int64
}

// plan builds the launch plan shared by Search and PredictSeconds: sort
// subjects ascending by length, chunk to device memory, pack 32 per warp,
// then route overlong subjects to intra-task launches.
func (e *Engine) plan(qlen int, lengths []int) []planLaunch {
	warpSize := e.dev.Config().WarpSize
	order := make([]int, 0, len(lengths))
	var intra []int
	for i, l := range lengths {
		if l == 0 {
			continue // nothing to do; score stays 0
		}
		if l > e.cfg.IntraThreshold {
			intra = append(intra, i)
			continue
		}
		order = append(order, i)
	}
	sort.SliceStable(order, func(a, b int) bool { return lengths[order[a]] < lengths[order[b]] })

	var plans []planLaunch
	var cur planLaunch
	var curResidues int64
	var curBlock []planWarp
	flushBlock := func() {
		if len(curBlock) > 0 {
			cur.blocks = append(cur.blocks, curBlock)
			curBlock = nil
		}
	}
	flushLaunch := func() {
		flushBlock()
		if len(cur.blocks) > 0 {
			cur.transferBytes = curResidues + int64(qlen) + 4*int64(len(cur.blocks)*e.cfg.WarpsPerBlock*warpSize)
			plans = append(plans, cur)
			cur = planLaunch{}
			curResidues = 0
		}
	}
	for w := 0; w < len(order); w += warpSize {
		hi := w + warpSize
		if hi > len(order) {
			hi = len(order)
		}
		subjects := order[w:hi]
		maxLen := 0
		var warpResidues int64
		for _, si := range subjects {
			if lengths[si] > maxLen {
				maxLen = lengths[si]
			}
			warpResidues += int64(lengths[si])
		}
		if curResidues > 0 && curResidues+warpResidues > e.cfg.MaxChunkResidues {
			flushLaunch()
		}
		curResidues += warpResidues
		curBlock = append(curBlock, planWarp{
			subjects: append([]int(nil), subjects...),
			cycles:   uint64(float64(maxLen) * float64(qlen) * e.cfg.CyclesPerCell),
		})
		if len(curBlock) == e.cfg.WarpsPerBlock {
			flushBlock()
		}
	}
	flushLaunch()
	// Intra-task launches: the device cooperates on one subject; model the
	// cost as evenly spread over all SMs at reduced efficiency.
	dev := e.dev.Config()
	for _, si := range intra {
		cells := float64(lengths[si]) * float64(qlen)
		perSM := cells * e.cfg.CyclesPerCell / (float64(warpSize) * float64(dev.SMs) * e.cfg.IntraEfficiency)
		var pl planLaunch
		for s := 0; s < dev.SMs; s++ {
			w := planWarp{cycles: uint64(perSM)}
			if s == 0 {
				w.subjects = []int{si} // functional work rides on one warp
			}
			pl.blocks = append(pl.blocks, []planWarp{w})
		}
		pl.transferBytes = int64(lengths[si]) + int64(qlen) + 4
		plans = append(plans, pl)
	}
	return plans
}

// scorer escalates striped 8-bit -> 16-bit -> scalar, sharing profiles
// across all warps of a search (CUDASW++ keeps its query profile resident
// in texture memory for the same reason).
type scorer struct {
	params sw.Params
	query  []byte
	p8     *scoring.StripedProfile8
	p16    *scoring.StripedProfile16
}

func newScorer(params sw.Params, query []byte) *scorer {
	s := &scorer{params: params, query: query}
	s.p8, _ = scoring.NewStripedProfile8(params.Matrix, query)
	return s
}

func (s *scorer) score(subject []byte) int {
	if s.p8 != nil {
		if v, over := swvector.ScoreStriped8(s.p8, s.params.Gaps, subject); !over {
			return v
		}
	}
	if s.p16 == nil {
		s.p16 = scoring.NewStripedProfile16(s.params.Matrix, s.query)
	}
	if v, over := swvector.ScoreStriped16(s.p16, s.params.Gaps, subject); !over {
		return v
	}
	return sw.Score(s.params, s.query, subject)
}

// scoreWarp is the functional+timing unit handed to the simulator.
type scoreWarp struct {
	scorer   *scorer
	db       *seq.Set
	out      []int
	subjects []int
	cycles   uint64
}

// Run implements gpusim.Warp.
func (w *scoreWarp) Run() {
	for _, si := range w.subjects {
		w.out[si] = w.scorer.score(w.db.Seqs[si].Residues)
	}
}

// Cycles implements gpusim.Warp.
func (w *scoreWarp) Cycles() uint64 { return w.cycles }

func lengthsOf(db *seq.Set) []int {
	out := make([]int, db.Len())
	for i := range db.Seqs {
		out[i] = db.Seqs[i].Len()
	}
	return out
}
