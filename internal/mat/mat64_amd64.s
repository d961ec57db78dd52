//go:build amd64 && !purego

#include "textflag.h"

// PAIR folds columns j and j+1 of two weight rows into acc, whose lanes
// are the two rows' accumulators. Each row's [j, j+1] is multiplied by
// [x[j], x[j+1]] (X8), the two product pairs are transposed to
// [r0[j]·x[j], r1[j]·x[j]] and [r0[j+1]·x[j+1], r1[j+1]·x[j+1]], and
// these are added in column order. Separate MULPD and ADDPD, never FMA:
// every product is rounded before it is added.
#define PAIR(r0, r1, acc) \
	MOVUPD   r0, X10;  \
	MOVUPD   r1, X11;  \
	MULPD    X8, X10;  \
	MULPD    X8, X11;  \
	MOVAPD   X10, X12; \
	UNPCKLPD X11, X10; \
	UNPCKHPD X11, X12; \
	ADDPD    X10, acc; \
	ADDPD    X12, acc

// XLAST broadcasts the last x of an odd-width row into both lanes of X8
// (MOVDDUP is SSE3).
#define XLAST \
	MOVSD    (DX), X8; \
	UNPCKLPD X8, X8

// ODD folds that last column of two rows into acc with 8-byte loads only,
// so nothing past the end of a row is read.
#define ODD(r0, r1, acc) \
	MOVSD  r0, X10;  \
	MOVHPD r1, X10;  \
	MULPD  X8, X10;  \
	ADDPD  X10, acc

// STORE adds the two finished row sums in acc to dst[off], dst[off+1].
#define STORE(off, acc) \
	MOVUPD off(DI), X10; \
	ADDPD  X10, acc;     \
	MOVUPD acc, off(DI)

// func gemv64SSE(dst, w, x *float64, rows, cols int)
//
// dst[i] += Σ_j w[i*cols+j]·x[j] for every row i, each row's sum taken
// over j = 0..cols-1 strictly in order from +0 — bit for bit the rolled
// scalar loop. Rows are independent, so eight of them advance together,
// two per XMM register (X0..X3), and the add latency of one row's chain
// is hidden behind the other rows' work. Rows left over go two at a time,
// then one; an odd last column is folded in with scalar loads. cols may
// be 0 (w and x are then never dereferenced): the sum is +0 and dst[i]
// still receives dst[i] + 0. SSE2 only — part of the amd64 baseline.
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
	JL    rows2
	LEAQ  (SI)(R11*4), BX // rows 4..7
	MOVQ  R8, DX          // x cursor rewinds per block
	MOVQ  R10, CX         // remaining columns
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3

cols8:
	CMPQ   CX, $2
	JL     odd8
	MOVUPD (DX), X8
	PAIR((SI), (SI)(R11*1), X0)
	PAIR((SI)(R11*2), (SI)(R12*1), X1)
	PAIR((BX), (BX)(R11*1), X2)
	PAIR((BX)(R11*2), (BX)(R12*1), X3)
	ADDQ   $16, SI
	ADDQ   $16, BX
	ADDQ   $16, DX
	SUBQ   $2, CX
	JMP    cols8

odd8:
	TESTQ CX, CX
	JE    store8
	XLAST
	ODD((SI), (SI)(R11*1), X0)
	ODD((SI)(R11*2), (SI)(R12*1), X1)
	ODD((BX), (BX)(R11*1), X2)
	ODD((BX)(R11*2), (BX)(R12*1), X3)
	ADDQ  $8, BX

store8:
	STORE(0, X0)
	STORE(16, X1)
	STORE(32, X2)
	STORE(48, X3)
	ADDQ $64, DI
	LEAQ (BX)(R12*1), SI // BX is at row 5; row 8 is three further
	SUBQ $8, R9
	JMP  rows8

rows2:
	CMPQ  R9, $2
	JL    rows1
	MOVQ  R8, DX
	MOVQ  R10, CX
	XORPS X0, X0

cols2:
	CMPQ   CX, $2
	JL     odd2
	MOVUPD (DX), X8
	PAIR((SI), (SI)(R11*1), X0)
	ADDQ   $16, SI
	ADDQ   $16, DX
	SUBQ   $2, CX
	JMP    cols2

odd2:
	TESTQ CX, CX
	JE    store2
	XLAST
	ODD((SI), (SI)(R11*1), X0)
	ADDQ  $8, SI

store2:
	STORE(0, X0)
	ADDQ $16, DI
	ADDQ R11, SI // SI is at row 1; row 2 is one further
	SUBQ $2, R9
	JMP  rows2

rows1:
	TESTQ R9, R9
	JE    done
	MOVQ  R8, DX
	MOVQ  R10, CX
	XORPS X0, X0

cols1:
	TESTQ CX, CX
	JE    store1
	MOVSD (SI), X10
	MULSD (DX), X10
	ADDSD X10, X0
	ADDQ  $8, SI
	ADDQ  $8, DX
	DECQ  CX
	JMP   cols1

store1:
	ADDSD (DI), X0
	MOVSD X0, (DI)

done:
	RET
