package swvector

import (
	"sync"

	"swdual/internal/seq"
	"swdual/internal/sw"
)

// InterSeq is the Rognes SWIPE-style inter-sequence engine (the analogue
// of the SWIPE baseline in the paper's Table I): eight database sequences
// are aligned against the query simultaneously, one per byte lane, with
// finished lanes refilled from the remaining database.
//
// Lanes carry 7-bit values offset by K = max(OpenCost+Extend, bias) under
// a guard bit (see the package comment), so a lane is exact for scores up
// to 127-K. A subject whose diagonal term leaves that range retires with
// its overflow flag set and is rescored by the scalar oracle — not by
// the 16-bit striped kernel, which runs at half the oracle's speed and
// needs a 16-bit query profile, 50 bytes per query residue, that a
// profile cache would then keep for the sake of one subject. When
// K + bias + the matrix maximum exceeds 127 — huge gap costs, or a matrix
// too wide for 7 bits — the lanes have no usable range and every subject
// goes to the oracle: exact, just slow.
//
// InterSeq reads no per-query profile — the column profile is rebuilt
// from the biased matrix for every database column — so it does not
// implement sw.ProfiledEngine.
type InterSeq struct {
	params sw.Params
	offset int  // K
	narrow bool // no usable 7-bit range: every subject goes to the oracle
	bias   int
	// Byte r%8 of biased[d][r/8] is S(d, r) + bias, the source of the
	// column profile; entries beyond the matrix size stay 0.
	biased [32][4]uint64
}

// NewInterSeq builds the engine.
func NewInterSeq(p sw.Params) *InterSeq {
	e := &InterSeq{params: p}
	m := p.Matrix
	if minV := m.Min(); minV < 0 {
		e.bias = -minV
	}
	open, ext := p.Gaps.OpenCost(), p.Gaps.Extend
	e.offset = max(open+ext, e.bias)
	// The kernel also relies on open >= ext >= 0, which negative
	// penalties would break.
	e.narrow = p.Gaps.Start < 0 || ext < 0 || e.offset+e.bias+m.Max() > 127
	if e.narrow {
		return e
	}
	for d := 0; d < m.Size(); d++ {
		for r, s := range m.Row(byte(d)) {
			e.biased[d][r/8] |= uint64(int(s)+e.bias) << (8 * (r % 8))
		}
	}
	return e
}

// Name implements sw.Engine.
func (e *InterSeq) Name() string { return "interseq-swar" }

// Scores implements sw.Engine.
func (e *InterSeq) Scores(query []byte, db *seq.Set) []int {
	if e.narrow {
		return sw.NewScalar(e.params).Scores(query, db)
	}
	out := make([]int, db.Len())
	if len(query) == 0 || db.Len() == 0 {
		return out
	}
	var overflowed []int
	k := newInterKernel(e, query)
	k.run(db, out, &overflowed)
	k.release()
	for _, i := range overflowed {
		out[i] = sw.Score(e.params, query, db.Seqs[i].Residues)
	}
	return out
}

var _ sw.Engine = (*InterSeq)(nil)

// interCell is one query row of the DP state: H of the previous column
// and E of the current one, both in the offset domain, 8 lanes each.
type interCell struct{ h, e uint64 }

// interKernel holds the per-search vector state.
type interKernel struct {
	eng   *InterSeq
	query []byte
	cells []interCell // one per query row
	// prof[r] is the current column's score word for query residue r:
	// the sum over lanes l of S(r, subject_l's residue) << 8l as a signed
	// integer, idle lanes scoring -bias (see loadColumn).
	prof    [32]uint64
	laneSeq [Lanes8Count]int    // db sequence index per lane, -1 = idle
	laneRes [Lanes8Count][]byte // the lane's residues not yet consumed
	laneMax uint64              // running maximum of H' per lane
	flags   uint64              // bit 7 of a lane set: it left the 7-bit range

	vOffset, vGapInit, vGapOpen, vGapExt, vBias uint64
}

// interKernelPool recycles kernels across tasks: the cells are the
// per-search DP state, and reusing their backing array keeps the
// steady-state search allocation-free the same way the striped kernels
// pool their H/E rows.
var interKernelPool = sync.Pool{New: func() any { return new(interKernel) }}

func newInterKernel(e *InterSeq, query []byte) *interKernel {
	k := interKernelPool.Get().(*interKernel)
	k.eng = e
	k.query = query
	open := e.params.Gaps.OpenCost()
	k.vOffset = splat8(uint8(e.offset))
	k.vGapInit = splat8(uint8(e.offset - open)) // E and F of a cell whose neighbour holds H = 0
	k.vGapOpen = splat8(uint8(open))
	k.vGapExt = splat8(uint8(e.params.Gaps.Extend))
	k.vBias = splat8(uint8(e.bias))
	if cap(k.cells) < len(query) {
		k.cells = make([]interCell, len(query))
	}
	// Every lane starts as a valid empty column (H = 0); fill re-arms
	// the lanes it assigns.
	k.cells = k.cells[:len(query)]
	for i := range k.cells {
		k.cells[i] = interCell{h: k.vOffset, e: k.vGapInit}
	}
	k.laneMax = k.vOffset
	k.flags = 0
	return k
}

// release returns the kernel to the pool. The caller must not touch it
// afterwards.
func (k *interKernel) release() {
	k.eng = nil
	k.query = nil
	k.laneRes = [Lanes8Count][]byte{}
	interKernelPool.Put(k)
}

func (k *interKernel) run(db *seq.Set, out []int, overflowed *[]int) {
	next := 0
	active := 0
	for l := range k.laneSeq {
		k.laneSeq[l] = -1
	}
	// Prime the lanes.
	for l := 0; l < Lanes8Count && next < db.Len(); l++ {
		next = k.fill(l, db, next)
		if k.laneSeq[l] >= 0 {
			active++
		}
	}
	for active > 0 {
		k.loadColumn()
		k.column()
		// Retire and refill the lanes that just consumed their last residue.
		for l := 0; l < Lanes8Count; l++ {
			if k.laneSeq[l] < 0 || len(k.laneRes[l]) > 0 {
				continue
			}
			k.retire(l, out, overflowed)
			next = k.fill(l, db, next)
			if k.laneSeq[l] < 0 {
				active--
			}
		}
	}
}

// fill assigns the next non-empty database sequence to lane l (empty
// ones score 0, which out already holds) and resets the lane's DP state.
// It returns the updated next index.
func (k *interKernel) fill(l int, db *seq.Set, next int) int {
	for next < db.Len() && db.Seqs[next].Len() == 0 {
		next++
	}
	if next >= db.Len() {
		return next
	}
	k.laneSeq[l] = next
	k.laneRes[l] = db.Seqs[next].Residues
	h, e := byteAt(k.vOffset, l), byteAt(k.vGapInit, l)
	for i := range k.cells {
		c := &k.cells[i]
		c.h = withByte(c.h, l, h)
		c.e = withByte(c.e, l, e)
	}
	k.laneMax = withByte(k.laneMax, l, h)
	k.flags = withByte(k.flags, l, 0)
	return next + 1
}

// retire records lane l's score, or queues the subject for rescoring if
// the lane overflowed, and leaves the lane idle.
func (k *interKernel) retire(l int, out []int, overflowed *[]int) {
	si := k.laneSeq[l]
	if byteAt(k.flags, l)&0x80 != 0 {
		*overflowed = append(*overflowed, si)
	} else {
		out[si] = int(byteAt(k.laneMax, l)) - k.eng.offset
	}
	k.laneSeq[l] = -1
}

// idleRow is the biased-matrix row of a lane with no subject: 0, the
// most negative biased score, in every position.
var idleRow [4]uint64

// loadColumn consumes one residue from every active lane and assembles
// the column profile from the biased-matrix rows of those residues: an
// 8x8 byte transpose per block of 8 residue codes turns lane-major rows
// into code-major profile words.
//
// The bias comes off here, once per residue code instead of once per
// cell. That leaves prof[r] with borrows across its lanes, but column
// only ever adds it to a word whose lanes are all >= K >= bias: every
// lane of the true sum is then in [0, 255], so the 64-bit sum is the
// lane-wise sum.
func (k *interKernel) loadColumn() {
	var rows [Lanes8Count]*[4]uint64
	for l := range rows {
		rows[l] = &idleRow
		if res := k.laneRes[l]; len(res) > 0 {
			rows[l] = &k.eng.biased[res[0]]
			k.laneRes[l] = res[1:]
		}
	}
	for b := 0; 8*b < k.eng.params.Matrix.Size(); b++ {
		var w [8]uint64
		for l := range w {
			w[l] = rows[l][b]
		}
		transpose8x8(&w)
		for j, v := range w {
			k.prof[8*b+j] = v - k.vBias
		}
	}
}

// column advances the DP by one database column in every lane. All
// values are offset by K; see the package comment for why no step can
// borrow or carry across lanes.
func (k *interKernel) column() {
	cells := k.cells
	query := k.query[:len(cells)]
	prof := &k.prof
	vOffset, vGapOpen, vGapExt := k.vOffset, k.vGapOpen, k.vGapExt
	diag := vOffset // H[0][j-1] = 0
	f := k.vGapInit // F[1][j], opened from H[0][j] = 0
	for i := range cells {
		c := &cells[i]
		// The diagonal term is the only value that can exceed 7 bits:
		// flag the lanes where it did and keep the rest of the word clean.
		t := diag + prof[query[i]]
		k.flags |= t
		t &= low7
		// A new maximum is always reached on a diagonal step, and rarely.
		if anyGT7(t, k.laneMax) {
			k.laneMax = max7(k.laneMax, t)
		}
		diag = c.h
		x := max7(max7(t, vOffset), c.e)
		h := max7(x, f)
		c.h = h
		c.e = max7(c.e-vGapExt, h-vGapOpen)
		// F[i+1][j] = max(F-ext, H-open), and H = max(x, F) with open >= ext
		// makes the F-open term redundant: the carried chain skips H.
		f = max7(f-vGapExt, x-vGapOpen)
	}
}
