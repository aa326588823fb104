//go:build unix

package swvector

import (
	"math/rand"
	"syscall"
	"testing"

	"swdual/internal/alphabet"
	"swdual/internal/seq"
	"swdual/internal/sw"
)

// guardedSet returns a database whose every sequence ends on the last
// byte before an unmapped page, as the last sequence of a mapped .swdb
// file may: reading one byte past any of them faults.
func guardedSet(t *testing.T, subjects [][]byte) *seq.Set {
	t.Helper()
	page := syscall.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, 2*page*len(subjects), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { syscall.Munmap(mem) })
	db := seq.NewSet(alphabet.Protein)
	for i, s := range subjects {
		pair := mem[2*page*i : 2*page*(i+1)]
		if err := syscall.Mprotect(pair[page:], syscall.PROT_NONE); err != nil {
			t.Fatal(err)
		}
		end := pair[page-len(s) : page : page]
		copy(end, s)
		db.AddEncoded("guarded", "", end)
	}
	return db
}

// TestInterSeqStaysInsideItsSubjects is the one property no differential
// test can see: nothing reads a byte past a subject, which may end its
// mapping. The columns read only the lane plan's copy of the residues, so
// this guards the plan builder that copies them and the pair kernel that
// rescores flagged subjects in place. Lengths either side of a block and
// of 256 columns, as every lane's subject at once, as the only subject,
// and all of them together.
func TestInterSeqStaysInsideItsSubjects(t *testing.T) {
	eachKernel(t, func(t *testing.T, newEngine func(sw.Params) *InterSeq) {
		p := params()
		e := newEngine(p)
		rng := rand.New(rand.NewSource(89))
		q := randSeq(rng, 48)
		var mixed [][]byte
		for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 253, 254, 255, 256, 257, 258, 259} {
			for _, count := range []int{1, maxLanes + 3} {
				subjects := make([][]byte, count)
				for i := range subjects {
					subjects[i] = randSeq(rng, n)
				}
				checkAgainstOracle(t, p, e, q, guardedSet(t, subjects))
				mixed = append(mixed, subjects[0])
			}
		}
		checkAgainstOracle(t, p, e, q, guardedSet(t, mixed))
	})
}
