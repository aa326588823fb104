package swvector

import (
	"sync"

	"swdual/internal/sw"
)

const (
	avx2Lanes = 32 // the AVX2 column's lane count: the bytes of a YMM register
	avx2Block = 4  // database columns avx2Columns runs per pass over the query rows
)

// avx2Tables is the AVX2 kernels' view of the scoring parameters.
type avx2Tables struct {
	// column says the lanes have a range, K + max S < 255; without it
	// every subject goes to the pair kernel or the oracle, consts is unset
	// and table holds nothing usable.
	column bool
	// table[q][d] is byte(S(q, d) + OpenCost) for all 32 residue codes, the
	// source of the column profile: avx2Columns looks row q up by the 32
	// residues the lanes consume.
	table [32][32]byte
	// The bytes avx2Columns broadcasts: K = max(OpenCost + Extend, bias),
	// OpenCost, Extend.
	consts [3]byte
	// limit is 255 - max(0, max S): a lane whose maximum H' stayed at or
	// below it never wrapped a diagonal term.
	limit int
	// The pair kernel's parameters: biased[q][d] is S(q, d) + bias, the
	// source of its profile; pair is {bias, OpenCost, Extend} at 16 bits,
	// the gap costs clamped to 65535 as gapVectors16 clamps them; and
	// pairExact is whether that kernel may run: with Gaps.Start == 0 its
	// lazy-F early exit is not exact. (Its other limits, non-negative gap
	// penalties and bias + max(matrix) < 65535, are narrower here already.)
	biased    [32][32]byte
	pair      [3]uint16
	pairExact bool
}

// newAVX2Tables returns nil when the biased matrix does not fit a byte
// below the saturation value, or a gap penalty is negative (the kernels
// rely on open >= ext >= 0): neither AVX2 kernel can then serve.
func newAVX2Tables(p sw.Params) *avx2Tables {
	m := p.Matrix
	bias := max(0, -m.Min())
	if p.Gaps.Start < 0 || p.Gaps.Extend < 0 || bias+m.Max() >= 255 {
		return nil
	}
	open, ext := p.Gaps.OpenCost(), p.Gaps.Extend
	open16, ext16 := gapVectors16(p.Gaps)
	t := &avx2Tables{
		limit: 255 - max(0, m.Max()),
		pair:  [3]uint16{uint16(bias), uint16(open16), uint16(ext16)}, pairExact: p.Gaps.Start > 0,
	}
	if offset := max(open+ext, bias); offset < t.limit {
		t.column = true
		t.consts = [3]byte{byte(offset), byte(open), byte(ext)}
	}
	for q := range t.table {
		for d := range t.table[q] {
			s := m.Score(byte(q), byte(d))
			t.table[q][d], t.biased[q][d] = byte(s+open), byte(s+bias)
		}
	}
	return t
}

// avx2Kernel holds the per-search state of the AVX2 column.
type avx2Kernel struct {
	tab   *avx2Tables
	query []byte
	codes int // rows of prof a block builds: 1 + the query's largest residue code
	// One 64-byte row per query residue, a byte per lane: G = H' - OpenCost
	// of the previous column, then E' of the current one. Both are at
	// least the floor K - OpenCost in every lane: H' >= K, and E' is a
	// maximum over G.
	cells []byte
	// prof[c][q][l] is byte(S(q, lane l's residue) + OpenCost) in column c
	// of the current block.
	prof    [avx2Block][32][32]byte
	laneMax [avx2Lanes]byte // running maximum of H' per lane
	// marks[l] is ^floor for a lane reset since the last advance, 0 for
	// any other; marked says one is.
	marks  [avx2Lanes]byte
	marked bool
}

// avx2KernelPool recycles kernels across tasks, as swarKernelPool does.
var avx2KernelPool = sync.Pool{New: func() any { return new(avx2Kernel) }}

func newAVX2Kernel(t *avx2Tables, query []byte) *avx2Kernel {
	return avx2KernelPool.Get().(*avx2Kernel).load(t, query)
}

// load readies k, fresh or used, for query under t.
func (k *avx2Kernel) load(t *avx2Tables, query []byte) *avx2Kernel {
	codes := 0
	for _, q := range query {
		codes = max(codes, int(q)+1)
	}
	if codes > len(t.table) {
		// avx2Columns indexes prof by query residue with no bounds check.
		panic("swvector: query residue code out of range")
	}
	k.tab = t
	k.query = query
	k.codes = codes
	// reset lowers a lane's cells to the floor, so none may start below
	// it; a pooled kernel's cells may hold another query's rows or another
	// gap model's floor, so every byte is set to this one's, by doubling
	// copies.
	n := 2 * avx2Lanes * len(query)
	if cap(k.cells) < n {
		k.cells = make([]byte, n)
	}
	k.cells = k.cells[:n]
	k.cells[0] = t.consts[0] - t.consts[1]
	for i := 1; i < n; i *= 2 {
		copy(k.cells[i:], k.cells[:i])
	}
	return k
}

func (k *avx2Kernel) lanes() int { return avx2Lanes }
func (k *avx2Kernel) block() int { return avx2Block }

func (k *avx2Kernel) release() {
	k.tab = nil
	k.query = nil
	avx2KernelPool.Put(k)
}

// reset marks lane l for the next advance, which first sets the lane's G
// and E' in every row to the floor K - OpenCost in one vector pass
// (avx2ResetLanes: the minimum with the floor, which the cells never go
// below). G = K - OpenCost is H = 0. E' at the floor is E = -inf, not
// E = 0 as a fresh row would hold, but the two are the same column: E'
// enters H' = max(K, ...) and anything at or below K leaves H' at K,
// and E' - Extend below K stays below it.
func (k *avx2Kernel) reset(l int) {
	k.marks[l] = ^(k.tab.consts[0] - k.tab.consts[1])
	k.marked = true
	k.laneMax[l] = k.tab.consts[0]
}

// score flags a lane whose maximum passed limit: the diagonal term H' + S
// wraps only from an H' above it, which the maximum has then seen.
func (k *avx2Kernel) score(l int) (score int, overflow bool) {
	m := int(k.laneMax[l])
	return m - int(k.tab.consts[0]), m > k.tab.limit
}

func (k *avx2Kernel) advance(stream []byte) {
	if k.marked {
		avx2ResetLanes(&k.cells[0], len(k.query), &k.marks)
		k.marks, k.marked = [avx2Lanes]byte{}, false
	}
	avx2Columns(&k.cells[0], &k.query[0], len(k.query), &k.tab.table, k.codes, &k.prof, &k.tab.consts, &k.laneMax, &stream[0], len(stream)/avx2Lanes)
}
