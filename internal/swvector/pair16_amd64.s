#include "textflag.h"

// SHIFTUP moves every 16-bit lane of y one lane up and zeroes lane 0: the
// low half of y placed under the high half gives VPALIGNR the word that
// crosses between the two 128-bit halves.
#define SHIFTUP(y) \
	VPERM2I128 $0x08, y, y, Y6; \
	VPALIGNR $14, Y6, y, y

// func striped16Pair(prof *uint16, segLen int, subject *byte, n int, rows *uint16, consts *[3]uint16, best *[16]uint16)
//
// Y0 H  Y1 F  Y2 max  Y3 bias  Y4 open  Y5 ext  Y6 scratch  Y7 E
// AX byte offset in a row  BX columns left  CX bytes a row  DX profile row
// R8 H being written  R9 H of the previous column  R10 E  DI lazy-F passes left
TEXT ·striped16Pair(SB), NOSPLIT, $0-56
	MOVQ consts+40(FP), AX
	VPBROADCASTW 0(AX), Y3
	VPBROADCASTW 2(AX), Y4
	VPBROADCASTW 4(AX), Y5
	MOVQ segLen+8(FP), CX
	SHLQ $5, CX
	MOVQ rows+32(FP), R8
	LEAQ (R8)(CX*1), R9
	LEAQ (R9)(CX*1), R10
	MOVQ subject+16(FP), SI
	MOVQ n+24(FP), BX
	VPXOR Y2, Y2, Y2

column:
	MOVBLZX (SI), DX
	INCQ SI
	IMULQ CX, DX
	ADDQ prof+0(FP), DX
	// The diagonal of segment 0 is the last segment's H of the previous
	// column, one query position (= one lane) further on.
	VMOVDQU -32(R8)(CX*1), Y0
	SHIFTUP(Y0)
	XCHGQ R8, R9
	VPXOR Y1, Y1, Y1
	XORQ AX, AX
row:
	VPADDUSW (DX)(AX*1), Y0, Y0
	VPSUBUSW Y3, Y0, Y0      // H[i-1][j-1] + S, floored at 0
	VMOVDQU (R10)(AX*1), Y7
	VPMAXUW Y7, Y0, Y0
	VPMAXUW Y1, Y0, Y0       // H[i][j] = max(that, E, F)
	VPMAXUW Y0, Y2, Y2
	VMOVDQU Y0, (R8)(AX*1)
	VPSUBUSW Y4, Y0, Y0      // H - open
	VPSUBUSW Y5, Y7, Y7
	VPSUBUSW Y5, Y1, Y1
	VPMAXUW Y0, Y7, Y7       // E[i][j+1] = max(E - ext, H - open)
	VPMAXUW Y0, Y1, Y1       // F[i+1][j] = max(F - ext, H - open)
	VMOVDQU Y7, (R10)(AX*1)
	VMOVDQU (R9)(AX*1), Y0   // H[i][j-1], the next segment's diagonal
	ADDQ $32, AX
	CMPQ AX, CX
	JLT  row

	// Lazy F (Farrar): F leaving the last segment enters the first one a
	// lane up; follow it only while it still beats H - open somewhere. It
	// cannot raise the maximum — it is an H of this column less a gap.
	MOVQ $16, DI
lazy:
	SHIFTUP(Y1)
	XORQ AX, AX
lazyrow:
	VPMAXUW (R8)(AX*1), Y1, Y0
	VMOVDQU Y0, (R8)(AX*1)
	VPSUBUSW Y4, Y0, Y0
	VPSUBUSW Y5, Y1, Y1
	VPSUBUSW Y0, Y1, Y6
	VPTEST Y6, Y6
	JZ   next
	ADDQ $32, AX
	CMPQ AX, CX
	JLT  lazyrow
	DECQ DI
	JNZ  lazy

next:
	DECQ BX
	JNZ  column
	MOVQ best+48(FP), AX
	VMOVDQU Y2, (AX)
	VZEROUPPER
	RET
