//go:build amd64 && !purego

#include "textflag.h"

// ROW folds columns j and j+1 of one weight row into acc, whose lanes are
// that row's even-column and odd-column partial sums: [w[j], w[j+1]] times
// [x[j], x[j+1]] (X8), added lane for lane. Separate MULPD and ADDPD,
// never FMA: every product is rounded before it is added.
#define ROW(r, tmp, acc) \
	MOVUPD r, tmp;   \
	MULPD  X8, tmp;  \
	ADDPD  tmp, acc

// LAST folds the last column of an odd-width row into the even (low) lane
// of acc with 8-byte loads only, so nothing past the end of a row is read;
// X8 holds that last x. ADDSD leaves the odd lane as it was.
#define LAST(r, tmp, acc) \
	MOVSD r, tmp;   \
	MULSD X8, tmp;  \
	ADDSD tmp, acc

// FINISH adds e + o of the two rows in a0 and a1 to dst[off], dst[off+1].
#define FINISH(off, a0, a1) \
	MOVAPD   a0, X9;      \
	UNPCKLPD a1, X9;      \
	UNPCKHPD a1, a0;      \
	ADDPD    a0, X9;      \
	MOVUPD   off(DI), X10; \
	ADDPD    X10, X9;     \
	MOVUPD   X9, off(DI)

// func gemv64SSE(dst, w, x *float64, rows, cols int)
//
// dst[i] += e + o for every row i, where e is the sum of the row's even
// columns' products w[i*cols+j]·x[j] and o of its odd columns', each taken
// in increasing j from +0; an odd last column joins e. The two partial
// sums are the two lanes of one XMM register, so a column pair is one
// load, one multiply and one add per row, and the lanes meet only once,
// when the row is finished. Eight rows advance together (X0..X7), which
// hides each row's add latency behind the other rows' work; rows left over
// go one at a time. cols may be 0 (w and x are then never dereferenced):
// e and o are +0 and dst[i] still receives dst[i] + 0. SSE2 only — part of
// the amd64 baseline.
TEXT ·gemv64SSE(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ w+8(FP), SI
	MOVQ x+16(FP), R8
	MOVQ rows+24(FP), R9
	MOVQ cols+32(FP), R10
	MOVQ R10, R11
	SHLQ $3, R11           // row stride in bytes
	LEAQ (R11)(R11*2), R12 // three rows

rows8:
	CMPQ  R9, $8
	JL    rows1
	LEAQ  (SI)(R11*4), BX // rows 4..7
	MOVQ  R8, DX          // x cursor rewinds per block
	MOVQ  R10, CX         // remaining columns
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	XORPS X4, X4
	XORPS X5, X5
	XORPS X6, X6
	XORPS X7, X7

cols8:
	CMPQ   CX, $2
	JL     odd8
	MOVUPD (DX), X8
	ROW((SI), X9, X0)
	ROW((SI)(R11*1), X10, X1)
	ROW((SI)(R11*2), X11, X2)
	ROW((SI)(R12*1), X12, X3)
	ROW((BX), X13, X4)
	ROW((BX)(R11*1), X14, X5)
	ROW((BX)(R11*2), X15, X6)
	ROW((BX)(R12*1), X9, X7)
	ADDQ   $16, SI
	ADDQ   $16, BX
	ADDQ   $16, DX
	SUBQ   $2, CX
	JMP    cols8

odd8:
	TESTQ CX, CX
	JE    finish8
	MOVSD (DX), X8
	LAST((SI), X9, X0)
	LAST((SI)(R11*1), X10, X1)
	LAST((SI)(R11*2), X11, X2)
	LAST((SI)(R12*1), X12, X3)
	LAST((BX), X13, X4)
	LAST((BX)(R11*1), X14, X5)
	LAST((BX)(R11*2), X15, X6)
	LAST((BX)(R12*1), X9, X7)
	ADDQ  $8, BX

finish8:
	FINISH(0, X0, X1)
	FINISH(16, X2, X3)
	FINISH(32, X4, X5)
	FINISH(48, X6, X7)
	ADDQ $64, DI
	LEAQ (BX)(R12*1), SI // BX is at row 5; row 8 is three further
	SUBQ $8, R9
	JMP  rows8

rows1:
	TESTQ R9, R9
	JE    done
	MOVQ  R8, DX
	MOVQ  R10, CX
	XORPS X0, X0

cols1:
	CMPQ   CX, $2
	JL     odd1
	MOVUPD (DX), X8
	ROW((SI), X9, X0)
	ADDQ   $16, SI
	ADDQ   $16, DX
	SUBQ   $2, CX
	JMP    cols1

odd1:
	TESTQ CX, CX
	JE    finish1
	MOVSD (DX), X8
	LAST((SI), X9, X0)
	ADDQ  $8, SI

finish1:
	MOVAPD   X0, X9
	UNPCKHPD X9, X9 // o in the low lane
	ADDSD    X9, X0 // e + o
	ADDSD    (DI), X0
	MOVSD    X0, (DI)
	ADDQ     $8, DI
	DECQ     R9
	JMP      rows1

done:
	RET
