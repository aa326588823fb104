// Package swvector implements the two CPU SIMD Smith-Waterman strategies
// the paper's baselines rely on:
//
//   - the Rognes SWIPE inter-sequence vectorization (InterSeq), the kernel
//     the worker pool runs: one query against one database sequence per
//     byte lane, finished lanes refilled from the rest of the database;
//   - the Farrar "striped" intra-sequence vectorization (STRIPED, SWPS3),
//     with the lazy-F correction loop and 8-bit -> 16-bit -> scalar
//     overflow escalation.
//
// InterSeq has one lane driver and two column kernels under it. Which one
// runs is decided once, when the package is initialised, from CPUID; no
// option, flag or build tag selects it.
//
// The AVX2 column (amd64 with AVX2; Go assembler, swipe_avx2_amd64.s)
// holds 32 byte lanes in a YMM register and works in the SWAR column's
// offset domain, below, at a byte's width: H' = H + K, E' = E + K,
// F' = F + K with K = max(OpenCost+Extend, bias). On the Xeon this was
// tuned on, saturating and min/max byte ops issue on two ports (6.0
// op/ns each for VPADDUSB, VPSUBUSB, VPMAXUB at 256 bits), plain VPADDB,
// VPSUBB and VPOR on three (8.8), and a column of ten of the former ran
// at exactly their port bound, 5.0 cycles a row; at 512 bits they have
// one port (3.0 op/ns), so 64 lanes buy nothing. In the offset domain
// only the six maxima are left on the two ports. A cell row keeps
// G = H' - OpenCost of the previous column and E' of this one, the
// lookup table byte(S + OpenCost), so that a cell is
//
//	t  = G(diagonal) + table      VPADDB, = H'(diagonal) + S
//	H' = max(t, K, F', E')        M = max(M, H')
//	G  = H' - OpenCost            VPSUBB
//	E' = max(E' - Extend, G)      F' = max(F' - Extend, G)
//
// and nothing saturates: H' >= K, G >= K-OpenCost >= Extend and E', F' >=
// Extend hold whatever happened before, so no subtraction wraps, and t >=
// K-bias >= 0. E' enters the maximum last because it is the value a row
// carries from cell to cell: the chain through it stays three ops a cell. t
// wraps past 255 only from an H' above 255 - max S, which the running
// maximum M has seen by then: a lane is flagged iff M > 255 - max(0, max S),
// scores M - K, and is exact to 255 - max S - K (230 with BLOSUM62 and 10/2
// gaps; the saturating column reached 250). A parameter set with K + max S
// >= 255 leaves no such room and gets no column at all: its subjects all
// take the ladder below. The column profile — byte(S(q, d) + OpenCost) for
// the 32 residues d the lanes consume, one row per query residue code q — is
// two PSHUFB lookups per code into a 32 x 32 table; an idle lane reads 0, S
// = -OpenCost, so its t = G < H' raises nothing.
//
// Ten ALU ops a cell would still share a row's two loads, two stores and its
// scalar ops, so the column runs four database columns per pass over the
// query rows, as SWIPE does: four diagonals, four F' and the E' that walks
// across the block stay in registers, G and E' are loaded and stored once
// per four cells, and the row's first three G become the next row's
// diagonals. What scalar work is left shows: an ADDQ and a second loop
// counter in the row loop cost 8-10 %. One thread, a 270-residue query on
// the benchmark corpus: 21.3 Gcell/s, from 17.4. The lane driver therefore
// advances in whole blocks; a subject that ends inside one is followed by
// idle columns, which raise nothing, as above, and are 0.4 % of the benchmark
// corpus. The block's residues are one 4-byte load per lane and a 16-op
// vector transpose, not 128 byte loads — which is why a stream that ends
// inside the call is first copied, idle-padded, into the kernel: subjects
// are memory-mapped, and the assembler must not read past one.
//
// The SWAR column (everywhere else; pure Go, swipe_swar.go) emulates 8
// lanes in a uint64. It keeps a 7-bit payload in each byte and bit 7 as a
// guard, and stores H, E and F offset by K = max(OpenCost+Extend, bias).
// In that domain H' >= K and E', F' >= K-OpenCost >= Extend hold in every
// lane whatever happened before, so the gap recurrences are plain word
// subtractions that cannot borrow, a maximum is 7 ALU ops through the
// guard bit (max7), and nothing in the inner loop saturates. The one
// value that can leave the 7-bit range is the diagonal term; its bit 7
// is OR-accumulated as the lane's overflow flag and then masked off, so
// a saturated lane computes garbage but never carries into a neighbour.
// A lane therefore holds exact scores up to 127-K (113 with BLOSUM62 and
// the default 10/2 gaps).
//
// Under either column a subject that scores more than its lane holds
// retires flagged. Behind the AVX2 column it is rescored by the pair
// kernel (pair16.go, pair16_amd64.s): Farrar's striped layout in 16
// unsigned 16-bit lanes, VPADDUSW / VPSUBUSW / VPMAXUW, the lazy-F loop
// left on VPSUBUSW + VPTEST — scoreStriped16's recurrence at four times
// the lanes, exact to 65534-bias, and only past that (or with Gs == 0,
// where leaving the lazy-F loop early is not exact) by the scalar
// oracle; behind the SWAR column by the oracle directly. Its lanes run
// along the query because flagged subjects come one to a query — a
// second, 16-bit-wide column would run 1 lane in 16 — and its query
// profile is scratch of one Scores call, never cached. The SWAR column
// is the AVX2 one's differential oracle and scoreStriped16 the pair
// kernel's: every kernel test and FuzzKernelsAgree run both pairs.
//
// The striped kernels keep full 8- and 16-bit unsigned lanes in uint64
// words with saturating add/subtract built from an even/odd split into
// double-width sub-lanes (addSat8 and friends below): slower per
// operation, but they reach 255-bias and 65535-bias.
//
// All of them produce scores identical to the scalar oracle in package sw.
package swvector

// 7-bit guard lanes (the inter-sequence SWAR column).

const (
	guard8 = 0x8080808080808080 // bit 7 of every byte: the guard
	low7   = 0x7F7F7F7F7F7F7F7F // the 7-bit payloads
)

// max7 returns the per-byte maximum of two words whose lanes all hold
// 7-bit values (guard bits clear). Setting a's guard bits makes every
// lane of the difference non-negative, so the subtraction cannot borrow
// across lanes, and leaves the guard set exactly where a >= b; that bit
// is widened to a 0x7F mask selecting a-b, which is added back to b.
func max7(a, b uint64) uint64 {
	d := (a | guard8) - b
	m := d & guard8
	m -= m >> 7
	return b + d&m
}

// anyGT7 reports whether any 7-bit lane of a is strictly greater than
// the corresponding lane of b.
func anyGT7(a, b uint64) bool {
	return ((b|guard8)-a)&guard8 != guard8
}

// swapBits exchanges the bits of a selected by m<<s with the bits of b
// selected by m.
func swapBits(a, b, m uint64, s uint) (uint64, uint64) {
	t := (a>>s ^ b) & m
	return a ^ t<<s, b ^ t
}

// transpose8x8 transposes an 8x8 byte matrix held one row per word: byte
// j of w[i] becomes byte i of w[j]. Three rounds of block swaps (4x4,
// 2x2, 1x1) cost about one ALU op per byte, a third of gathering the
// bytes one by one.
func transpose8x8(w *[8]uint64) {
	w0, w1, w2, w3, w4, w5, w6, w7 := w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7]
	w0, w4 = swapBits(w0, w4, 0x00000000FFFFFFFF, 32)
	w1, w5 = swapBits(w1, w5, 0x00000000FFFFFFFF, 32)
	w2, w6 = swapBits(w2, w6, 0x00000000FFFFFFFF, 32)
	w3, w7 = swapBits(w3, w7, 0x00000000FFFFFFFF, 32)
	w0, w2 = swapBits(w0, w2, 0x0000FFFF0000FFFF, 16)
	w1, w3 = swapBits(w1, w3, 0x0000FFFF0000FFFF, 16)
	w4, w6 = swapBits(w4, w6, 0x0000FFFF0000FFFF, 16)
	w5, w7 = swapBits(w5, w7, 0x0000FFFF0000FFFF, 16)
	w0, w1 = swapBits(w0, w1, 0x00FF00FF00FF00FF, 8)
	w2, w3 = swapBits(w2, w3, 0x00FF00FF00FF00FF, 8)
	w4, w5 = swapBits(w4, w5, 0x00FF00FF00FF00FF, 8)
	w6, w7 = swapBits(w6, w7, 0x00FF00FF00FF00FF, 8)
	w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7] = w0, w1, w2, w3, w4, w5, w6, w7
}

// 8-bit unsigned lanes, 8 per uint64 word (the striped kernel). The
// helpers split a word into even and odd bytes widened to 16-bit
// sub-lanes; within a sub-lane the arithmetic cannot carry across lanes,
// which keeps every operation branch-free and obviously correct.

const (
	evenMask = 0x00FF00FF00FF00FF
	carry8   = 0x0100010001000100 // bit 8 of each 16-bit sub-lane
	ones16   = 0x0001000100010001
)

func splitBytes(x uint64) (even, odd uint64) {
	return x & evenMask, (x >> 8) & evenMask
}

func mergeBytes(even, odd uint64) uint64 {
	return even | odd<<8
}

// addSat8 returns the per-byte unsigned saturating sum a+b.
func addSat8(a, b uint64) uint64 {
	ae, ao := splitBytes(a)
	be, bo := splitBytes(b)
	se := ae + be
	so := ao + bo
	// Saturate sub-lanes that carried into bit 8.
	me := (se >> 8 & ones16) * 0xFF
	mo := (so >> 8 & ones16) * 0xFF
	return mergeBytes(se&evenMask|me, so&evenMask|mo)
}

// subSat8 returns the per-byte unsigned saturating difference max(a-b, 0).
func subSat8(a, b uint64) uint64 {
	ae, ao := splitBytes(a)
	be, bo := splitBytes(b)
	// Bias each sub-lane by 256 so the subtraction never borrows across
	// lanes; bit 8 is then set exactly when a >= b.
	de := ae + carry8 - be
	do := ao + carry8 - bo
	ge := de >> 8 & ones16 // 1 where a >= b
	go_ := do >> 8 & ones16
	return mergeBytes(de&evenMask&(ge*0xFF), do&evenMask&(go_*0xFF))
}

// max8 returns the per-byte unsigned maximum.
func max8(a, b uint64) uint64 {
	ae, ao := splitBytes(a)
	be, bo := splitBytes(b)
	de := ae + carry8 - be
	do := ao + carry8 - bo
	ge := (de >> 8 & ones16) * 0xFF // 0xFF where a >= b
	go_ := (do >> 8 & ones16) * 0xFF
	return mergeBytes(ae&ge|be&^ge, ao&go_|bo&^go_)
}

// anyGT8 reports whether any byte of a is strictly greater than the
// corresponding byte of b.
func anyGT8(a, b uint64) bool {
	return subSat8(a, b) != 0
}

// maxByte8 returns the largest byte in the word.
func maxByte8(x uint64) uint8 {
	best := uint8(0)
	for i := 0; i < 8; i++ {
		if b := uint8(x >> (8 * i)); b > best {
			best = b
		}
	}
	return best
}

// splat8 replicates an 8-bit value into all lanes.
func splat8(v uint8) uint64 {
	return uint64(v) * 0x0101010101010101
}

// byteAt extracts lane l (0 = least significant).
func byteAt(x uint64, l int) uint8 { return uint8(x >> (8 * l)) }

// withByte returns x with lane l replaced by v.
func withByte(x uint64, l int, v uint8) uint64 {
	sh := uint(8 * l)
	return x&^(uint64(0xFF)<<sh) | uint64(v)<<sh
}

// laneShiftUp8 shifts the word up by one 8-bit lane (the striped kernel's
// column rotation), filling the vacated lane 0 with fill.
func laneShiftUp8(x uint64, fill uint8) uint64 {
	return x<<8 | uint64(fill)
}

// 16-bit unsigned lanes, 4 per uint64 word, same even/odd widening trick
// with 32-bit sub-lanes.

const (
	evenMask16 = 0x0000FFFF0000FFFF
	carry16    = 0x0001000000010000
	ones32     = 0x0000000100000001
)

func split16(x uint64) (even, odd uint64) {
	return x & evenMask16, (x >> 16) & evenMask16
}

func merge16(even, odd uint64) uint64 {
	return even | odd<<16
}

// addSat16 returns the per-uint16 saturating sum.
func addSat16(a, b uint64) uint64 {
	ae, ao := split16(a)
	be, bo := split16(b)
	se := ae + be
	so := ao + bo
	me := (se >> 16 & ones32) * 0xFFFF
	mo := (so >> 16 & ones32) * 0xFFFF
	return merge16(se&evenMask16|me, so&evenMask16|mo)
}

// subSat16 returns the per-uint16 saturating difference max(a-b, 0).
func subSat16(a, b uint64) uint64 {
	ae, ao := split16(a)
	be, bo := split16(b)
	de := ae + carry16 - be
	do := ao + carry16 - bo
	ge := de >> 16 & ones32
	go_ := do >> 16 & ones32
	return merge16(de&evenMask16&(ge*0xFFFF), do&evenMask16&(go_*0xFFFF))
}

// max16 returns the per-uint16 unsigned maximum.
func max16(a, b uint64) uint64 {
	ae, ao := split16(a)
	be, bo := split16(b)
	de := ae + carry16 - be
	do := ao + carry16 - bo
	ge := (de >> 16 & ones32) * 0xFFFF
	go_ := (do >> 16 & ones32) * 0xFFFF
	return merge16(ae&ge|be&^ge, ao&go_|bo&^go_)
}

// anyGT16 reports whether any 16-bit lane of a exceeds that of b.
func anyGT16(a, b uint64) bool { return subSat16(a, b) != 0 }

// maxLane16 returns the largest 16-bit lane in the word.
func maxLane16(x uint64) uint16 {
	best := uint16(0)
	for i := 0; i < 4; i++ {
		if v := uint16(x >> (16 * i)); v > best {
			best = v
		}
	}
	return best
}

// splat16 replicates a 16-bit value into all four lanes.
func splat16(v uint16) uint64 { return uint64(v) * ones16 }

// laneShiftUp16 shifts the word up by one 16-bit lane, filling lane 0.
func laneShiftUp16(x uint64, fill uint16) uint64 {
	return x<<16 | uint64(fill)
}
