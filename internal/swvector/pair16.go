package swvector

import (
	"slices"
	"sync"
)

// pairLanes is the pair kernel's lane count: the 16-bit words of a YMM
// register.
const pairLanes = 16

// pairKernel is the 16-bit striped (Farrar) kernel that rescores, one
// subject at a time, what the AVX2 column flagged: the recurrence of
// scoreStriped16 with 16 lanes along the query instead of 4, exact for
// scores up to 65534-bias. It lives for one Scores call and holds
// nothing a pool should not.
type pairKernel struct {
	tab    *avx2Tables
	segLen int // vectors a row: ceil(len(query) / 16)
	// prof[(d*segLen+i)*16+l] is S(query[l*segLen+i], d) + bias, 0 past
	// the query's end: one row of segLen vectors per residue code d.
	prof []uint16
	rows []uint16 // H of this column, H of the previous one, E
	best [pairLanes]uint16
}

var pairKernelPool = sync.Pool{New: func() any { return new(pairKernel) }}

// newPairKernel builds the striped profile of query, whose residue codes
// index t.biased.
func newPairKernel(t *avx2Tables, query []byte) *pairKernel {
	k := pairKernelPool.Get().(*pairKernel)
	k.tab, k.segLen = t, (len(query)+pairLanes-1)/pairLanes
	k.prof = resizeCleared(k.prof, len(t.biased[0])*k.segLen*pairLanes)
	for pos, q := range query {
		at := pos%k.segLen*pairLanes + pos/k.segLen
		for d, s := range &t.biased[q] {
			k.prof[d*k.segLen*pairLanes+at] = uint16(s)
		}
	}
	return k
}

func (k *pairKernel) release() {
	k.tab = nil
	pairKernelPool.Put(k)
}

// score returns the local alignment score of the kernel's query and
// subject, or overflow = true if it reached the 16-bit ceiling and must
// be rescored by the oracle.
func (k *pairKernel) score(subject []byte) (score int, overflow bool) {
	if k.segLen == 0 || len(subject) == 0 {
		return 0, false
	}
	if int(slices.Max(subject)) >= len(k.tab.biased[0]) {
		// striped16Pair indexes prof by subject residue with no bounds check.
		panic("swvector: subject residue code out of range")
	}
	k.rows = resizeCleared(k.rows, 3*k.segLen*pairLanes)
	striped16Pair(&k.prof[0], k.segLen, &subject[0], len(subject), &k.rows[0], &k.tab.pair, &k.best)
	s := int(slices.Max(k.best[:]))
	return s, s >= 65535-int(k.tab.pair[0])
}
