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
// 32, an idle lane, has bit 7 set in both and reads 0.
DATA x70<>+0(SB)/8, $0x7070707070707070
GLOBL x70<>(SB), RODATA|NOPTR, $8
DATA x10<>+0(SB)/8, $0x1010101010101010
GLOBL x10<>(SB), RODATA|NOPTR, $8

// LANE moves residue j of lane l's stream into byte l of the frame.
#define LANE(l) \
	MOVQ (24*l)(R11), DX; \
	MOVB (DX)(AX*1), CX;  \
	MOVB CX, l(SP)

#define LANE4(a, b, c, d) LANE(a); LANE(b); LANE(c); LANE(d)

// func avx2Columns(cells, query *byte, rows int, table *[32][32]byte, codes int, prof *[32][32]byte, consts *[3]byte, laneMax *[32]byte, res *[32][]byte, n int)
//
// Y0 diag  Y1 F  Y2 max  Y3 bias  Y4 open  Y5 ext  Y6 t, then H
// Y7 E  Y11 low-half indexes  Y12 high-half indexes  Y13 0x70  Y14 0x10
// AX column  BX n  R9 prof  R11 res
TEXT ·avx2Columns(SB), NOSPLIT, $32-80
	MOVQ n+72(FP), BX
	TESTQ BX, BX
	JLE  done
	MOVQ consts+48(FP), AX
	VPBROADCASTB 0(AX), Y3
	VPBROADCASTB 1(AX), Y4
	VPBROADCASTB 2(AX), Y5
	MOVQ laneMax+56(FP), AX
	VMOVDQU (AX), Y2
	VPBROADCASTQ x70<>(SB), Y13
	VPBROADCASTQ x10<>(SB), Y14
	MOVQ prof+40(FP), R9
	MOVQ res+64(FP), R11
	XORQ AX, AX

column:
	// The residue each lane consumes in this column.
	LANE4(0, 1, 2, 3)
	LANE4(4, 5, 6, 7)
	LANE4(8, 9, 10, 11)
	LANE4(12, 13, 14, 15)
	LANE4(16, 17, 18, 19)
	LANE4(20, 21, 22, 23)
	LANE4(24, 25, 26, 27)
	LANE4(28, 29, 30, 31)
	VMOVDQU (SP), Y11
	VPXOR   Y14, Y11, Y12
	VPADDB  Y13, Y11, Y11
	VPADDB  Y13, Y12, Y12

	// prof[q][l] = table[q][residue of lane l] for every code the query holds.
	MOVQ table+24(FP), R10
	MOVQ codes+32(FP), CX
	MOVQ R9, R8
profile:
	VBROADCASTI128 (R10), Y6
	VBROADCASTI128 16(R10), Y7
	VPSHUFB Y11, Y6, Y6
	VPSHUFB Y12, Y7, Y7
	VPOR    Y7, Y6, Y6
	VMOVDQU Y6, (R8)
	ADDQ $32, R10
	ADDQ $32, R8
	DECQ CX
	JNZ  profile

	// One DP column. The running maximum is taken on the diagonal term
	// only: E and F derive from earlier H values, which it already saw.
	MOVQ cells+0(FP), R8
	MOVQ query+8(FP), DI
	MOVQ rows+16(FP), CX
	VPXOR Y0, Y0, Y0         // H[0][j-1] = 0
	VPXOR Y1, Y1, Y1         // F[1][j] <= 0
row:
	MOVBLZX (DI), DX
	SHLQ $5, DX
	VPADDUSB (R9)(DX*1), Y0, Y6
	VPSUBUSB Y3, Y6, Y6      // t = H[i-1][j-1] + S, floored at 0
	VPMAXUB Y6, Y2, Y2
	VMOVDQU (R8), Y0         // H[i][j-1], the next row's diagonal
	VMOVDQU 32(R8), Y7       // E[i][j]
	VPMAXUB Y7, Y6, Y6
	VPMAXUB Y1, Y6, Y6       // H[i][j] = max(t, E, F)
	VMOVDQU Y6, (R8)
	VPSUBUSB Y4, Y6, Y6      // H - open
	VPSUBUSB Y5, Y7, Y7
	VPSUBUSB Y5, Y1, Y1
	VPMAXUB Y6, Y7, Y7       // E[i][j+1] = max(E - ext, H - open)
	VPMAXUB Y6, Y1, Y1       // F[i+1][j] = max(F - ext, H - open)
	VMOVDQU Y7, 32(R8)
	INCQ DI
	ADDQ $64, R8
	DECQ CX
	JNZ  row

	INCQ AX
	CMPQ AX, BX
	JLT  column

	MOVQ laneMax+56(FP), AX
	VMOVDQU Y2, (AX)
	VZEROUPPER
done:
	RET
