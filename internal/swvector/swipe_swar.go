package swvector

import (
	"sync"

	"swdual/internal/sw"
)

// swarTables is the SWAR column's view of the scoring parameters.
type swarTables struct {
	offset int // K
	bias   int
	open   int // OpenCost
	ext    int
	codes  int // the matrix size
	// Byte r%8 of biased[d][r/8] is S(r, d) + bias — r the query residue,
	// d the subject's — the source of the column profile; entries beyond
	// the matrix size, and the whole row of idleCode, stay 0.
	biased [idleCode + 1][4]uint64
}

// newSWARTables returns nil when K + bias + the matrix maximum exceeds
// 127 — huge gap costs, or a matrix too wide for 7 bits — or a gap
// penalty is negative: the lanes then have no usable range.
func newSWARTables(p sw.Params) *swarTables {
	m := p.Matrix
	t := &swarTables{open: p.Gaps.OpenCost(), ext: p.Gaps.Extend, codes: m.Size()}
	if minV := m.Min(); minV < 0 {
		t.bias = -minV
	}
	t.offset = max(t.open+t.ext, t.bias)
	// The kernel also relies on open >= ext >= 0, which negative
	// penalties would break.
	if p.Gaps.Start < 0 || t.ext < 0 || t.offset+t.bias+m.Max() > 127 {
		return nil
	}
	for r := 0; r < m.Size(); r++ {
		for d, s := range m.Row(byte(r)) {
			t.biased[d][r/8] |= uint64(int(s)+t.bias) << (8 * (r % 8))
		}
	}
	return t
}

// swarCell is one query row of the DP state: H of the previous column
// and E of the current one, both in the offset domain, 8 lanes each.
type swarCell struct{ h, e uint64 }

// swarKernel holds the per-search state of the SWAR column.
type swarKernel struct {
	tab   *swarTables
	query []byte
	cells []swarCell // one per query row
	// prof[r] is the current column's score word for query residue r:
	// the sum over lanes l of S(r, subject_l's residue) << 8l as a signed
	// integer, idle lanes scoring -bias (see loadColumn).
	prof    [32]uint64
	laneMax uint64 // running maximum of H' per lane
	flags   uint64 // bit 7 of a lane set: it left the 7-bit range

	vOffset, vGapInit, vGapOpen, vGapExt, vBias uint64
}

// swarKernelPool recycles kernels across tasks: the cells are the
// per-search DP state, and reusing their backing array keeps the
// steady-state search allocation-free the same way the striped kernels
// pool their H/E rows.
var swarKernelPool = sync.Pool{New: func() any { return new(swarKernel) }}

func newSWARKernel(t *swarTables, query []byte) *swarKernel {
	k := swarKernelPool.Get().(*swarKernel)
	k.tab = t
	k.query = query
	k.vOffset = splat8(uint8(t.offset))
	k.vGapInit = splat8(uint8(t.offset - t.open)) // E and F of a cell whose neighbour holds H = 0
	k.vGapOpen = splat8(uint8(t.open))
	k.vGapExt = splat8(uint8(t.ext))
	k.vBias = splat8(uint8(t.bias))
	if cap(k.cells) < len(query) {
		k.cells = make([]swarCell, len(query))
	}
	// Every lane starts as a valid empty column (H = 0); reset re-arms
	// the lanes the driver assigns.
	k.cells = k.cells[:len(query)]
	for i := range k.cells {
		k.cells[i] = swarCell{h: k.vOffset, e: k.vGapInit}
	}
	k.laneMax = k.vOffset
	k.flags = 0
	return k
}

func (k *swarKernel) lanes() int { return Lanes8Count }
func (k *swarKernel) block() int { return 1 }

func (k *swarKernel) release() {
	k.tab = nil
	k.query = nil
	swarKernelPool.Put(k)
}

func (k *swarKernel) reset(l int) {
	h, e := byteAt(k.vOffset, l), byteAt(k.vGapInit, l)
	for i := range k.cells {
		c := &k.cells[i]
		c.h = withByte(c.h, l, h)
		c.e = withByte(c.e, l, e)
	}
	k.laneMax = withByte(k.laneMax, l, h)
	k.flags = withByte(k.flags, l, 0)
}

func (k *swarKernel) score(l int) (score int, overflow bool) {
	return int(byteAt(k.laneMax, l)) - k.tab.offset, byteAt(k.flags, l)&0x80 != 0
}

func (k *swarKernel) advance(stream []byte) {
	for ; len(stream) > 0; stream = stream[Lanes8Count:] {
		k.loadColumn((*[Lanes8Count]byte)(stream))
		k.column()
	}
}

// loadColumn assembles the profile of a column from the biased-matrix
// rows of the residues the lanes consume there, col[l] lane l's: an 8x8
// byte transpose per block of 8 residue codes turns lane-major rows into
// code-major profile words.
//
// The bias comes off here, once per residue code instead of once per
// cell. That leaves prof[r] with borrows across its lanes, but column
// only ever adds it to a word whose lanes are all >= K >= bias: every
// lane of the true sum is then in [0, 255], so the 64-bit sum is the
// lane-wise sum.
func (k *swarKernel) loadColumn(col *[Lanes8Count]byte) {
	var rows [Lanes8Count]*[4]uint64
	for l, d := range col {
		rows[l] = &k.tab.biased[d]
	}
	for b := 0; 8*b < k.tab.codes; b++ {
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
func (k *swarKernel) column() {
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
