#include "textflag.h"

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// PSHUFB zeroes a byte whose index has bit 7 set and otherwise looks up
// the low nibble, so a 32-entry table takes two lookups: code + 0x70
// selects from entries 0-15 and zeroes for codes 16 and up, (code ^ 0x10)
// + 0x70 selects from entries 16-31 and zeroes for codes below 16. Code
// 32, an idle lane, has bit 7 set in both and reads 0: S = -OpenCost.
DATA x70<>+0(SB)/8, $0x7070707070707070
GLOBL x70<>(SB), RODATA|NOPTR, $8
DATA x10<>+0(SB)/8, $0x1010101010101010
GLOBL x10<>(SB), RODATA|NOPTR, $8

// INDEXES turns the residues of a column in lo into its two PSHUFB index
// vectors, lo and hi.
#define INDEXES(lo, hi) \
	VPXOR  Y15, lo, hi; \
	VPADDB Y14, lo, lo; \
	VPADDB Y14, hi, hi

// PROFILE stores row (R10) of table, looked up by a column's indexes, as
// the row (R8) of the column's profile at byte offset col of prof.
#define PROFILE(lo, hi, col) \
	VPSHUFB lo, Y8, Y14;   \
	VPSHUFB hi, Y9, Y15;   \
	VPOR    Y15, Y14, Y14; \
	VMOVDQU Y14, col(R8)

// CELL is one DP cell in every lane: d holds G of the diagonal neighbour
// and leaves as G of this cell, f is F' entering and leaving the cell
// downwards, Y8 is E' entering and leaving it rightwards, col(R9)(DX*1)
// the profile row. E' is the value a row carries from cell to cell, so it
// enters the maximum last.
#define CELL(d, f, col) \
	VPADDB  col(R9)(DX*1), d, d; \
	VPMAXUB Y10, d, d;     \
	VPMAXUB f, d, d;       \
	VPMAXUB Y8, d, d;      \
	VPMAXUB d, Y13, Y13;   \
	VPSUBB  Y11, d, d;     \
	VPSUBB  Y12, Y8, Y8;   \
	VPSUBB  Y12, f, f;     \
	VPMAXUB d, Y8, Y8;     \
	VPMAXUB d, f, f

// ROW is one query row of the block's four columns: a-d enter as G of
// the diagonal neighbours in columns 0-3 and leave as this row's G, e
// receives G of the previous block's last column in this row — the next
// row's column-0 diagonal — before d is stored over it. q is the row's
// residue offset from (DI)(CX*1), g and ep its G and E' offsets from R8.
#define ROW(a, b, c, d, e, q, g, ep) \
	MOVBLZX q(DI)(CX*1), DX; \
	SHLQ    $5, DX;          \
	VMOVDQU g(R8), e;        \
	VMOVDQU ep(R8), Y8;      \
	CELL(a, Y4, 0);          \
	CELL(b, Y5, 1024);       \
	CELL(c, Y6, 2048);       \
	CELL(d, Y7, 3072);       \
	VMOVDQU d, g(R8);        \
	VMOVDQU Y8, ep(R8)

// func avx2Columns(cells, query *byte, rows int, table *[32][32]byte, codes int, prof *[4][32][32]byte, consts *[3]byte, laneMax *[32]byte, stream *byte, n int)
//
// In the row loop: Y0-Y3 and Y9 G, four of them of the diagonal
// neighbours in the block's four columns (then t, H', G in place), the
// fifth of the previous block  Y4-Y7 F' of the four  Y8 E'  Y10 K
// Y11 open  Y12 ext  Y13 max
// AX column  BX n  CX row - rows (+ 5 in the five-row passes)  DX 32 *
// the row's residue  DI query + rows
// R8 the row's cells  R9 prof  R11 the block's residues in stream
TEXT ·avx2Columns(SB), NOSPLIT, $0-80
	MOVQ n+72(FP), BX
	TESTQ BX, BX
	JLE  done
	MOVQ consts+48(FP), AX
	VPBROADCASTB 0(AX), Y10
	VPBROADCASTB 1(AX), Y11
	VPBROADCASTB 2(AX), Y12
	MOVQ laneMax+56(FP), AX
	VMOVDQU (AX), Y13
	MOVQ prof+40(FP), R9
	MOVQ stream+64(FP), R11
	XORQ AX, AX

block:
	// The residues each lane consumes in this block, a register a column:
	// the stream holds them column by column already.
	VMOVDQU (R11), Y0
	VMOVDQU 32(R11), Y1
	VMOVDQU 64(R11), Y2
	VMOVDQU 96(R11), Y3
	ADDQ $128, R11
	VPBROADCASTQ x70<>(SB), Y14
	VPBROADCASTQ x10<>(SB), Y15
	INDEXES(Y0, Y4)
	INDEXES(Y1, Y5)
	INDEXES(Y2, Y6)
	INDEXES(Y3, Y7)

	// prof[c][q][l] = table[q][residue of lane l in column c] for every
	// code q the query holds.
	MOVQ table+24(FP), R10
	MOVQ codes+32(FP), CX
	MOVQ R9, R8
profile:
	VBROADCASTI128 (R10), Y8
	VBROADCASTI128 16(R10), Y9
	PROFILE(Y0, Y4, 0)
	PROFILE(Y1, Y5, 1024)
	PROFILE(Y2, Y6, 2048)
	PROFILE(Y3, Y7, 3072)
	ADDQ $32, R10
	ADDQ $32, R8
	DECQ CX
	JNZ  profile

	// Four DP columns in one pass over the query rows: a row loads G and
	// E' once and stores them once. Row 0 and column 0 hold H = 0.
	MOVQ cells+0(FP), R8
	MOVQ query+8(FP), DI
	MOVQ rows+16(FP), CX
	ADDQ CX, DI
	NEGQ CX
	VPSUBB Y11, Y10, Y0
	VMOVDQA Y0, Y1
	VMOVDQA Y0, Y2
	VMOVDQA Y0, Y3
	VMOVDQA Y10, Y4
	VMOVDQA Y10, Y5
	VMOVDQA Y10, Y6
	VMOVDQA Y10, Y7
	ADDQ $5, CX
	JGT  rest
rows5:
	// Five rows a pass, the G registers rotating: each row loads the
	// previous block's G into the register whose column-3 G it has just
	// stored, so after five rows they are back in place with no copy.
	ROW(Y0, Y1, Y2, Y3, Y9, -5, 0, 32)
	ROW(Y9, Y0, Y1, Y2, Y3, -4, 64, 96)
	ROW(Y3, Y9, Y0, Y1, Y2, -3, 128, 160)
	ROW(Y2, Y3, Y9, Y0, Y1, -2, 192, 224)
	ROW(Y1, Y2, Y3, Y9, Y0, -1, 256, 288)
	ADDQ $320, R8
	ADDQ $5, CX
	JLE  rows5
rest:
	// The rows mod 5 left: one row a pass, the G registers copied back.
	SUBQ $5, CX
	JEQ  next
row:
	ROW(Y0, Y1, Y2, Y3, Y9, 0, 0, 32)
	VMOVDQA Y2, Y3           // this row's G are the next row's diagonals
	VMOVDQA Y1, Y2
	VMOVDQA Y0, Y1
	VMOVDQA Y9, Y0
	ADDQ $64, R8
	INCQ CX
	JNZ  row

next:
	ADDQ $4, AX
	CMPQ AX, BX
	JLT  block

	MOVQ laneMax+56(FP), AX
	VMOVDQU Y13, (AX)
	VZEROUPPER
done:
	RET

// func avx2ResetLanes(cells *byte, rows int, marks *[32]byte)
//
// Sets G and E' of every row to min(value, ^marks[l]) in lane l: to the
// floor in a marked lane, and unchanged where marks[l] is 0.
TEXT ·avx2ResetLanes(SB), NOSPLIT, $0-24
	MOVQ cells+0(FP), R8
	MOVQ rows+8(FP), CX
	MOVQ marks+16(FP), AX
	VPCMPEQB Y0, Y0, Y0
	VPXOR    (AX), Y0, Y0
reset:
	VPMINUB (R8), Y0, Y1
	VPMINUB 32(R8), Y0, Y2
	VMOVDQU Y1, (R8)
	VMOVDQU Y2, 32(R8)
	ADDQ    $64, R8
	DECQ    CX
	JNZ     reset
	VZEROUPPER
	RET
