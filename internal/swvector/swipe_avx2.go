package swvector

import (
	"sync"

	"swdual/internal/sw"
)

// avx2Lanes is the AVX2 column's lane count: the bytes of a YMM register.
const avx2Lanes = 32

// avx2Tables is the AVX2 column's view of the scoring parameters.
type avx2Tables struct {
	// table[q][d] is S(q, d) + bias for all 32 residue codes, the source
	// of the column profile: avx2Columns looks row q up by the 32
	// residues the lanes consume.
	table [32][32]byte
	// The bytes avx2Columns broadcasts: bias, OpenCost, Extend, the gap
	// costs clamped to 255 as gapVectors8 clamps them.
	consts [3]byte
	// pair is consts at the 16-bit pair kernel's width, the gap costs
	// clamped to 65535 as gapVectors16 clamps them, and pairExact whether
	// that kernel may run: with Gaps.Start == 0 its lazy-F early exit is
	// not exact. (Its other limits, non-negative gap penalties and
	// bias + max(matrix) < 65535, are narrower here already.)
	pair      [3]uint16
	pairExact bool
}

// newAVX2Tables returns nil when the biased matrix does not fit a byte
// below the saturation value, or a gap penalty is negative (the kernel
// relies on open >= ext >= 0): the lanes then have no usable range.
func newAVX2Tables(p sw.Params) *avx2Tables {
	m := p.Matrix
	bias := max(0, -m.Min())
	if p.Gaps.Start < 0 || p.Gaps.Extend < 0 || bias+m.Max() >= 255 {
		return nil
	}
	open, ext := gapVectors8(p.Gaps)
	open16, ext16 := gapVectors16(p.Gaps)
	t := &avx2Tables{
		consts: [3]byte{byte(bias), byte(open), byte(ext)},
		pair:   [3]uint16{uint16(bias), uint16(open16), uint16(ext16)}, pairExact: p.Gaps.Start > 0,
	}
	for q := range t.table {
		for d := range t.table[q] {
			t.table[q][d] = byte(m.Score(byte(q), byte(d)) + bias)
		}
	}
	return t
}

// avx2Kernel holds the per-search state of the AVX2 column.
type avx2Kernel struct {
	tab   *avx2Tables
	query []byte
	codes int // rows of prof a column builds: 1 + the query's largest residue code
	// One 64-byte row per query residue: H of the previous column, then
	// E of the current one, a byte per lane. Values are plain scores.
	cells []byte
	// prof[q][l] is S(q, lane l's residue) + bias in the current column.
	prof    [32][32]byte
	laneMax [avx2Lanes]byte // running maximum of the diagonal term per lane
}

// avx2KernelPool recycles kernels across tasks, as swarKernelPool does.
var avx2KernelPool = sync.Pool{New: func() any { return new(avx2Kernel) }}

func newAVX2Kernel(t *avx2Tables, query []byte) *avx2Kernel {
	codes := 0
	for _, q := range query {
		codes = max(codes, int(q)+1)
	}
	if codes > len(t.table) {
		// avx2Columns indexes prof by query residue with no bounds check.
		panic("swvector: query residue code out of range")
	}
	k := avx2KernelPool.Get().(*avx2Kernel)
	k.tab = t
	k.query = query
	k.codes = codes
	k.cells = resizeCleared(k.cells, 2*avx2Lanes*len(query))
	k.laneMax = [avx2Lanes]byte{}
	return k
}

func (k *avx2Kernel) lanes() int { return avx2Lanes }

func (k *avx2Kernel) release() {
	k.tab = nil
	k.query = nil
	avx2KernelPool.Put(k)
}

func (k *avx2Kernel) reset(l int) {
	// Lane l's H byte is at 64i + l and its E byte 32 further on.
	for i := l; i < len(k.cells); i += avx2Lanes {
		k.cells[i] = 0
	}
	k.laneMax[l] = 0
}

// score flags a lane whose maximum reached 255-bias: the diagonal term
// is diag + (S + bias) saturated at 255, less bias, so below that value
// nothing saturated and every score in the lane was exact.
func (k *avx2Kernel) score(l int) (score int, overflow bool) {
	s := int(k.laneMax[l])
	return s, s >= 255-int(k.tab.consts[0])
}

func (k *avx2Kernel) advance(res *[maxLanes][]byte, n int) {
	avx2Columns(&k.cells[0], &k.query[0], len(k.query), &k.tab.table, k.codes, &k.prof, &k.tab.consts, &k.laneMax, res, n)
}
