package swvector

// hasAVX2 reports whether avx2Columns can run here: the CPU has AVX2 and
// the operating system saves the YMM registers across context switches.
var hasAVX2 = detectAVX2()

func detectAVX2() bool {
	const (
		osxsave = 1 << 27 // CPUID.1:ECX
		avx     = 1 << 28 // CPUID.1:ECX
		avx2    = 1 << 5  // CPUID.7.0:EBX
		ymmXMM  = 0b110   // XCR0: SSE and AVX state enabled
	)
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, c, _ := cpuid(1, 0); c&osxsave == 0 || c&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&ymmXMM != ymmXMM {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&avx2 != 0
}

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// avx2Columns advances the 32-lane DP by n >= 4 columns, a multiple of 4:
// in column j lane l consumes stream[32j + l], so stream must hold 32n
// residue codes, each at most idleCode. cells is rows 64-byte {G, E'}
// rows, query the rows residue codes, all below codes <= 32; prof is
// scratch for a block's column profiles; laneMax is read and updated. See
// swipe_avx2.go for the layouts.
//
//go:noescape
func avx2Columns(cells, query *byte, rows int, table *[32][32]byte, codes int, prof *[avx2Block][32][32]byte, consts *[3]byte, laneMax *[32]byte, stream *byte, n int)

// avx2ResetLanes lowers G and E' of each of the rows >= 1 64-byte rows of
// cells to the floor in every lane l whose marks[l] is ^floor, and leaves
// the lanes whose marks[l] is 0 as they are. Every cell must be at or
// above its lane's floor.
//
//go:noescape
func avx2ResetLanes(cells *byte, rows int, marks *[32]byte)

// striped16Pair runs the 16-lane, 16-bit striped DP of one query, given
// as its striped profile of segLen >= 1 vectors a residue code, against
// the n >= 1 residues of subject, all below the profile's row count. rows
// is three zeroed rows of segLen vectors; best receives the per-lane
// maxima. See pair16.go for the layouts.
//
//go:noescape
func striped16Pair(prof *uint16, segLen int, subject *byte, n int, rows *uint16, consts *[3]uint16, best *[16]uint16)
