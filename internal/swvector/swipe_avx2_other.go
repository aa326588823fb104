//go:build !amd64

package swvector

// hasAVX2 is false off amd64: InterSeq runs the SWAR column.
const hasAVX2 = false

func avx2Columns(cells, query *byte, rows int, table *[32][32]byte, codes int, prof *[avx2Block][32][32]byte, consts *[3]byte, laneMax *[32]byte, stream *byte, n int) {
	panic("swvector: the AVX2 column exists on amd64 only")
}

func avx2ResetLanes(cells *byte, rows int, marks *[32]byte) {
	panic("swvector: the AVX2 column exists on amd64 only")
}

func striped16Pair(prof *uint16, segLen int, subject *byte, n int, rows *uint16, consts *[3]uint16, best *[16]uint16) {
	panic("swvector: the AVX2 pair kernel exists on amd64 only")
}
