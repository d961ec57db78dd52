//go:build amd64 && !purego

#include "textflag.h"

// OUTER adds the term s·[v0 v1 v2 v3] to one row of the 4×4 tile, lo and
// hi holding its columns j, j+1 and j+2, j+3, where s = u[i+off/8] is read
// from AX and X8, X9 hold v[j..j+3]. A zero s (either sign, compared
// against X15 = +0) skips the row: UCOMISD sets ZF for equal and for
// unordered, PF only for unordered, so the JPC is taken exactly when
// s == 0. NaN is not zero and is multiplied. The relative jumps land on
// the UNPCKLPD and on the first instruction after the macro.
#define OUTER(off, lo, hi) \
	MOVSD    off(AX), X10; \
	UCOMISD  X15, X10;     \
	JNE      2(PC);        \
	JPC      8(PC);        \
	UNPCKLPD X10, X10;     \
	MOVAPD   X8, X11;      \
	MULPD    X10, X11;     \
	ADDPD    X11, lo;      \
	MOVAPD   X9, X12;      \
	MULPD    X10, X12;     \
	ADDPD    X12, hi

// func addOuterSeqSSE(dst *float64, us, vs *Vector, n, rows, cols, stride int)
//
// dst[i*stride+j] += us[t][i]·vs[t][j] for t = 0..n-1 in order, skipping
// the terms whose us[t][i] is zero, over the first rows rows and cols
// columns of a row-major matrix stride columns wide. rows and cols are
// multiples of 4 and n ≥ 1. One 4×4 tile of dst is loaded into X0..X7
// (two columns per register, two registers per row), all n terms are
// added to it — each term one rounded product per element, MULPD then
// ADDPD, never FMA — and it is stored once. us and vs point at n slice
// headers (24 bytes each: data, len, cap); only the data words are read.
TEXT ·addOuterSeqSSE(SB), NOSPLIT, $0-56
	MOVQ  dst+0(FP), DI
	MOVQ  us+8(FP), R8
	MOVQ  vs+16(FP), R9
	MOVQ  n+24(FP), R10
	MOVQ  rows+32(FP), R14
	SHLQ  $3, R14          // rows, in bytes of u
	MOVQ  cols+40(FP), R12
	SHLQ  $3, R12          // cols, in bytes of v
	MOVQ  stride+48(FP), R13
	SHLQ  $3, R13          // row stride in bytes
	XORQ  R11, R11         // i·8: the tile row's offset into every u
	XORPS X15, X15

tilerow:
	CMPQ R11, R14
	JGE  done
	XORQ BX, BX // j·8: the tile column's offset into every v and dst row

tile:
	CMPQ   BX, R12
	JGE    nextrow
	LEAQ   (DI)(BX*1), AX
	MOVUPD (AX), X0
	MOVUPD 16(AX), X1
	MOVUPD (AX)(R13*1), X2
	MOVUPD 16(AX)(R13*1), X3
	LEAQ   (AX)(R13*2), AX
	MOVUPD (AX), X4
	MOVUPD 16(AX), X5
	MOVUPD (AX)(R13*1), X6
	MOVUPD 16(AX)(R13*1), X7
	MOVQ   R8, SI          // us[t] header
	MOVQ   R9, DX          // vs[t] header
	MOVQ   R10, CX         // terms left

term:
	MOVQ   (DX), AX
	MOVUPD (AX)(BX*1), X8
	MOVUPD 16(AX)(BX*1), X9
	MOVQ   (SI), AX
	ADDQ   R11, AX
	OUTER(0, X0, X1)
	OUTER(8, X2, X3)
	OUTER(16, X4, X5)
	OUTER(24, X6, X7)
	ADDQ   $24, SI
	ADDQ   $24, DX
	DECQ   CX
	JNE    term

	LEAQ   (DI)(BX*1), AX
	MOVUPD X0, (AX)
	MOVUPD X1, 16(AX)
	MOVUPD X2, (AX)(R13*1)
	MOVUPD X3, 16(AX)(R13*1)
	LEAQ   (AX)(R13*2), AX
	MOVUPD X4, (AX)
	MOVUPD X5, 16(AX)
	MOVUPD X6, (AX)(R13*1)
	MOVUPD X7, 16(AX)(R13*1)
	ADDQ   $32, BX
	JMP    tile

nextrow:
	LEAQ (DI)(R13*4), DI
	ADDQ $32, R11
	JMP  tilerow

done:
	RET

// AXPY adds a·w[i][j..j+1] (a broadcast in X8, the row at AX) into acc.
#define AXPY(off, tmp, acc) \
	MOVUPD off(AX), tmp; \
	MULPD  X8, tmp;      \
	ADDPD  tmp, acc

// func transMulVecAddSSE(dst, w, v *float64, rows, cols, stride int)
//
// dst[j] += v[i]·w[i*stride+j] for i = 0..rows-1 in order, skipping the
// rows whose v[i] is zero (either sign; NaN is multiplied), for the first
// cols columns. cols is a multiple of 16 and rows ≥ 1. Sixteen columns of
// dst stay in X0..X7 across all rows, so each row costs eight loads, eight
// MULPD and eight ADDPD and no store; every element still gets one
// rounded product per row, never FMA.
TEXT ·transMulVecAddSSE(SB), NOSPLIT, $0-48
	MOVQ  dst+0(FP), DI
	MOVQ  w+8(FP), SI
	MOVQ  v+16(FP), R10
	MOVQ  rows+24(FP), R11
	MOVQ  cols+32(FP), R9
	MOVQ  stride+40(FP), R8
	SHLQ  $3, R8           // row stride in bytes
	XORPS X15, X15

block:
	CMPQ   R9, $16
	JL     done
	MOVUPD (DI), X0
	MOVUPD 16(DI), X1
	MOVUPD 32(DI), X2
	MOVUPD 48(DI), X3
	MOVUPD 64(DI), X4
	MOVUPD 80(DI), X5
	MOVUPD 96(DI), X6
	MOVUPD 112(DI), X7
	MOVQ   SI, AX          // this block's columns of row 0
	MOVQ   R10, DX         // v cursor
	MOVQ   R11, CX         // rows left

row:
	MOVSD    (DX), X8
	UCOMISD  X15, X8
	JNE      axpy
	JPC      next          // v[i] == 0: skip the row
axpy:
	UNPCKLPD X8, X8
	AXPY(0, X9, X0)
	AXPY(16, X10, X1)
	AXPY(32, X11, X2)
	AXPY(48, X12, X3)
	AXPY(64, X13, X4)
	AXPY(80, X14, X5)
	AXPY(96, X9, X6)
	AXPY(112, X10, X7)

next:
	ADDQ R8, AX
	ADDQ $8, DX
	DECQ CX
	JNE  row

	MOVUPD X0, (DI)
	MOVUPD X1, 16(DI)
	MOVUPD X2, 32(DI)
	MOVUPD X3, 48(DI)
	MOVUPD X4, 64(DI)
	MOVUPD X5, 80(DI)
	MOVUPD X6, 96(DI)
	MOVUPD X7, 112(DI)
	ADDQ   $128, DI
	ADDQ   $128, SI
	SUBQ   $16, R9
	JMP    block

done:
	RET

// BCAST loads a float64 argument into both lanes of x.
#define BCAST(arg, x) \
	MOVSD    arg, x; \
	UNPCKLPD x, x

// func adamStepSSE(w, grad, m, v *float64, n int, beta1, beta2, omb1, omb2, c1, c2, lr, eps float64)
//
// The Adam element update of AdamStep, two elements per instruction, for
// the first n elements (n even, ≥ 2):
//
//	m = β₁·m + (1−β₁)·g;  v = β₂·v + ((1−β₂)·g)·g;  g = 0
//	w = w − (LR·(m/c₁)) / (√(v/c₂) + ε)
//
// each operation one packed instruction in that association, so each lane
// rounds as the portable loop's scalar operation does.
TEXT ·adamStepSSE(SB), NOSPLIT, $0-104
	MOVQ  w+0(FP), DI
	MOVQ  grad+8(FP), SI
	MOVQ  m+16(FP), R8
	MOVQ  v+24(FP), R9
	MOVQ  n+32(FP), CX
	BCAST(beta1+40(FP), X8)
	BCAST(beta2+48(FP), X9)
	BCAST(omb1+56(FP), X10)
	BCAST(omb2+64(FP), X11)
	BCAST(c1+72(FP), X12)
	BCAST(c2+80(FP), X13)
	BCAST(lr+88(FP), X14)
	BCAST(eps+96(FP), X15)
	XORPS X7, X7

pair:
	MOVUPD (SI), X0 // g
	MOVUPD X7, (SI)
	MOVUPD (R8), X1
	MULPD  X8, X1   // β₁·m
	MOVAPD X0, X2
	MULPD  X10, X2  // (1−β₁)·g
	ADDPD  X2, X1   // m
	MOVUPD X1, (R8)
	MOVUPD (R9), X3
	MULPD  X9, X3   // β₂·v
	MOVAPD X0, X4
	MULPD  X11, X4  // (1−β₂)·g
	MULPD  X0, X4   // ((1−β₂)·g)·g
	ADDPD  X4, X3   // v
	MOVUPD X3, (R9)
	DIVPD  X12, X1  // m/c₁
	MULPD  X14, X1  // LR·(m/c₁)
	DIVPD  X13, X3  // v/c₂
	SQRTPD X3, X3
	ADDPD  X15, X3  // √(v/c₂) + ε
	DIVPD  X3, X1
	MOVUPD (DI), X5
	SUBPD  X1, X5
	MOVUPD X5, (DI)
	ADDQ   $16, DI
	ADDQ   $16, SI
	ADDQ   $16, R8
	ADDQ   $16, R9
	SUBQ   $2, CX
	JNE    pair
	RET
