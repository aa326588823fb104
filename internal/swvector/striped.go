package swvector

import (
	"swdual/internal/scoring"
	"swdual/internal/seq"
	"swdual/internal/sw"
)

// ErrOverflow is reported (as a bool) by the fixed-width kernels when the
// score saturates the lane width; callers escalate to the next width.

// scoreStriped8 runs the Farrar striped kernel with 8-bit biased unsigned
// lanes. It returns the local alignment score and overflow=true when the
// score may have saturated (score >= 255 - bias), in which case the caller
// must rescore with a wider kernel.
//
// Farrar's lazy-F early termination is provably safe only when opening a
// gap costs strictly more than extending one (Gs > 0); for the degenerate
// Gs == 0 model the kernel switches to an exact full-propagation
// correction loop (see scoreStriped8Exact).
func scoreStriped8(p *scoring.StripedProfile8, gaps scoring.Gaps, subject []byte) (score int, overflow bool) {
	if p.QueryLen == 0 || len(subject) == 0 {
		return 0, false
	}
	if gaps.Start == 0 {
		best := scoreStriped8Exact(p, gaps, subject)
		return best, best >= 255-int(p.Bias)
	}
	segLen := p.SegLen
	vGapOpen, vGapExt := gapVectors8(gaps)
	vBias := splat8(p.Bias)
	sc, hStore, hLoad, vE := getRows(segLen)
	defer putRows(sc)
	var vMax uint64
	for _, d := range subject {
		vP := p.Rows[d]
		var vF uint64
		// The last segment's H of the previous column, rotated up one lane.
		vH := laneShiftUp8(hStore[segLen-1], 0)
		hStore, hLoad = hLoad, hStore
		for i := 0; i < segLen; i++ {
			vH = subSat8(addSat8(vH, vP[i]), vBias)
			vH = max8(vH, vE[i])
			vH = max8(vH, vF)
			vMax = max8(vMax, vH)
			hStore[i] = vH
			vHGap := subSat8(vH, vGapOpen)
			vE[i] = max8(subSat8(vE[i], vGapExt), vHGap)
			vF = max8(subSat8(vF, vGapExt), vHGap)
			vH = hLoad[i]
		}
		// Lazy-F correction (Farrar 2007): propagate F across segment
		// boundaries only when it can still improve H.
		vF = laneShiftUp8(vF, 0)
	lazyF:
		for k := 0; k < Lanes8Count; k++ {
			for i := 0; i < segLen; i++ {
				vH := max8(hStore[i], vF)
				vMax = max8(vMax, vH)
				hStore[i] = vH
				vF = subSat8(vF, vGapExt)
				if !anyGT8(vF, subSat8(vH, vGapOpen)) {
					break lazyF
				}
			}
			vF = laneShiftUp8(vF, 0)
		}
	}
	best := int(maxByte8(vMax))
	return best, best >= 255-int(p.Bias)
}

// gapVectors8 splats the gap costs into 8-bit lanes. A cost beyond the
// lane maximum is clamped to it, not truncated: lanes never exceed 255,
// so a saturating subtraction of 255 already yields 0, exactly what the
// larger cost would.
func gapVectors8(gaps scoring.Gaps) (open, ext uint64) {
	return splat8(uint8(min(gaps.OpenCost(), 0xFF))), splat8(uint8(min(gaps.Extend, 0xFF)))
}

// gapVectors16 is the 16-bit analogue of gapVectors8.
func gapVectors16(gaps scoring.Gaps) (open, ext uint64) {
	return splat16(uint16(min(gaps.OpenCost(), 0xFFFF))), splat16(uint16(min(gaps.Extend, 0xFFFF)))
}

// Lanes8Count and Lanes16Count mirror scoring.Lanes8/Lanes16 without
// importing them in hot paths.
const (
	Lanes8Count  = 8
	Lanes16Count = 4
)

// scoreStriped16 runs the striped kernel with 16-bit biased unsigned
// lanes. overflow=true means the score saturated even 16 bits and the
// caller must fall back to the scalar oracle. Like scoreStriped8 it
// switches to exact F propagation when Gs == 0.
func scoreStriped16(p *scoring.StripedProfile16, gaps scoring.Gaps, subject []byte) (score int, overflow bool) {
	if p.QueryLen == 0 || len(subject) == 0 {
		return 0, false
	}
	if gaps.Start == 0 {
		best := scoreStriped16Exact(p, gaps, subject)
		return best, best >= 65535-int(p.Bias)
	}
	segLen := p.SegLen
	vGapOpen, vGapExt := gapVectors16(gaps)
	vBias := splat16(p.Bias)
	sc, hStore, hLoad, vE := getRows(segLen)
	defer putRows(sc)
	var vMax uint64
	for _, d := range subject {
		vP := p.Rows[d]
		var vF uint64
		vH := laneShiftUp16(hStore[segLen-1], 0)
		hStore, hLoad = hLoad, hStore
		for i := 0; i < segLen; i++ {
			vH = subSat16(addSat16(vH, vP[i]), vBias)
			vH = max16(vH, vE[i])
			vH = max16(vH, vF)
			vMax = max16(vMax, vH)
			hStore[i] = vH
			vHGap := subSat16(vH, vGapOpen)
			vE[i] = max16(subSat16(vE[i], vGapExt), vHGap)
			vF = max16(subSat16(vF, vGapExt), vHGap)
			vH = hLoad[i]
		}
		vF = laneShiftUp16(vF, 0)
	lazyF:
		for k := 0; k < Lanes16Count; k++ {
			for i := 0; i < segLen; i++ {
				vH := max16(hStore[i], vF)
				vMax = max16(vMax, vH)
				hStore[i] = vH
				vF = subSat16(vF, vGapExt)
				if !anyGT16(vF, subSat16(vH, vGapOpen)) {
					break lazyF
				}
			}
			vF = laneShiftUp16(vF, 0)
		}
	}
	best := int(maxLane16(vMax))
	return best, best >= 65535-int(p.Bias)
}

// Striped is the Farrar-style intra-sequence engine (the analogue of the
// STRIPED baseline in the paper's Table I). It escalates 8-bit -> 16-bit
// -> scalar on overflow, the same strategy used by SSW and SWPS3.
type Striped struct {
	params sw.Params
}

// NewStriped builds the engine.
func NewStriped(p sw.Params) *Striped { return &Striped{params: p} }

// Name implements sw.Engine.
func (e *Striped) Name() string { return "striped-swar" }

// Scores implements sw.Engine.
func (e *Striped) Scores(query []byte, db *seq.Set) []int {
	return e.scores(query, scoring.NewQueryProfiles(e.params.Matrix, query), db)
}

func (e *Striped) scores(query []byte, prof *scoring.QueryProfiles, db *seq.Set) []int {
	out := make([]int, db.Len())
	p8, _ := prof.Striped8()
	var p16 *scoring.StripedProfile16
	for i := range db.Seqs {
		subject := db.Seqs[i].Residues
		if p8 != nil {
			if s, over := scoreStriped8(p8, e.params.Gaps, subject); !over {
				out[i] = s
				continue
			}
		}
		if p16 == nil {
			p16 = prof.Striped16()
		}
		if s, over := scoreStriped16(p16, e.params.Gaps, subject); !over {
			out[i] = s
			continue
		}
		out[i] = sw.Score(e.params, query, subject)
	}
	return out
}

// scoreStriped8Exact is the striped kernel with the lazy-F early
// termination replaced by full F/E propagation: each of the Lanes8Count
// passes advances every lane's F chain by segLen query positions, so a
// vertical gap of any length is fully propagated and the E vector is
// refreshed from raised H values. Exact for every gap model, ~Lanes8Count
// times more correction work per column; used when Gs == 0.
func scoreStriped8Exact(p *scoring.StripedProfile8, gaps scoring.Gaps, subject []byte) int {
	if p.QueryLen == 0 || len(subject) == 0 {
		return 0
	}
	segLen := p.SegLen
	vGapOpen, vGapExt := gapVectors8(gaps)
	vBias := splat8(p.Bias)
	sc, hStore, hLoad, vE := getRows(segLen)
	defer putRows(sc)
	var vMax uint64
	for _, d := range subject {
		vP := p.Rows[d]
		var vF uint64
		vH := laneShiftUp8(hStore[segLen-1], 0)
		hStore, hLoad = hLoad, hStore
		for i := 0; i < segLen; i++ {
			vH = subSat8(addSat8(vH, vP[i]), vBias)
			vH = max8(vH, vE[i])
			vH = max8(vH, vF)
			vMax = max8(vMax, vH)
			hStore[i] = vH
			vHGap := subSat8(vH, vGapOpen)
			vE[i] = max8(subSat8(vE[i], vGapExt), vHGap)
			vF = max8(subSat8(vF, vGapExt), vHGap)
			vH = hLoad[i]
		}
		for k := 0; k < Lanes8Count; k++ {
			vF = laneShiftUp8(vF, 0)
			for i := 0; i < segLen; i++ {
				vH := max8(hStore[i], vF)
				vMax = max8(vMax, vH)
				hStore[i] = vH
				vHGap := subSat8(vH, vGapOpen)
				vE[i] = max8(vE[i], vHGap)
				vF = max8(subSat8(vF, vGapExt), vHGap)
			}
		}
	}
	return int(maxByte8(vMax))
}

// scoreStriped16Exact is the 16-bit analogue of scoreStriped8Exact.
func scoreStriped16Exact(p *scoring.StripedProfile16, gaps scoring.Gaps, subject []byte) int {
	if p.QueryLen == 0 || len(subject) == 0 {
		return 0
	}
	segLen := p.SegLen
	vGapOpen, vGapExt := gapVectors16(gaps)
	vBias := splat16(p.Bias)
	sc, hStore, hLoad, vE := getRows(segLen)
	defer putRows(sc)
	var vMax uint64
	for _, d := range subject {
		vP := p.Rows[d]
		var vF uint64
		vH := laneShiftUp16(hStore[segLen-1], 0)
		hStore, hLoad = hLoad, hStore
		for i := 0; i < segLen; i++ {
			vH = subSat16(addSat16(vH, vP[i]), vBias)
			vH = max16(vH, vE[i])
			vH = max16(vH, vF)
			vMax = max16(vMax, vH)
			hStore[i] = vH
			vHGap := subSat16(vH, vGapOpen)
			vE[i] = max16(subSat16(vE[i], vGapExt), vHGap)
			vF = max16(subSat16(vF, vGapExt), vHGap)
			vH = hLoad[i]
		}
		for k := 0; k < Lanes16Count; k++ {
			vF = laneShiftUp16(vF, 0)
			for i := 0; i < segLen; i++ {
				vH := max16(hStore[i], vF)
				vMax = max16(vMax, vH)
				hStore[i] = vH
				vHGap := subSat16(vH, vGapOpen)
				vE[i] = max16(vE[i], vHGap)
				vF = max16(subSat16(vF, vGapExt), vHGap)
			}
		}
	}
	return int(maxLane16(vMax))
}
