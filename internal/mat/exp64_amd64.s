//go:build amd64 && !purego

#include "textflag.h"

// BCAST loads one float64 variable of exp64.go into both lanes of reg
// (MOVDDUP is SSE3).
#define BCAST(sym, reg) \
	MOVSD    sym, reg; \
	UNPCKLPD reg, reg

// EXPNEG turns the two inputs in X0 into their results, in X0. X6..X15
// hold the constants and R8 the table; AX, BX and X1..X5 are scratch. The
// steps, their order and their roundings are those of the portable kernel
// in exp64_noasm.go — change one only with the other:
//
//	X1 = the sign bits, X0 = |a|
//	X2 = 708 < |a| ? 708 : |a|              (MINPD keeps a NaN)
//	X3 = t = X2·(−64/ln2) + 1.5·2^52        (the low bits of t are k)
//	X4 = ⌊k/64⌋ in the exponent field, AX and BX = k mod 64 of each lane
//	X3 = k as a float, X5 = r = (k·(−hi) − X2) + k·(−lo)
//	X2 = r², X3 = c3·r + c2, X0 = c5·r + c4
//	X0 = q = (X0·r² + X3)·r² + r
//	X2 = T[k mod 64]·2^⌊k/64⌋               (an integer add: T is never NaN)
//	X0 = (X2·q + X2) | X1                   (a NaN r has made q NaN)
#define EXPNEG \
	MOVAPD X0, X1;         \
	ANDPD  X15, X1;        \
	XORPD  X1, X0;         \
	MOVAPD X14, X2;        \
	MINPD  X0, X2;         \
	MOVAPD X2, X3;         \
	MULPD  X13, X3;        \
	ADDPD  X12, X3;        \
	MOVAPD X3, X4;         \
	PEXTRW $0, X4, AX;     \
	PEXTRW $4, X4, BX;     \
	ANDL   $63, AX;        \
	ANDL   $63, BX;        \
	PSRLQ  $6, X4;         \
	PSLLQ  $52, X4;        \
	SUBPD  X12, X3;        \
	MOVAPD X3, X5;         \
	MULPD  X11, X5;        \
	SUBPD  X2, X5;         \
	MULPD  X10, X3;        \
	ADDPD  X3, X5;         \
	MOVAPD X5, X2;         \
	MULPD  X5, X2;         \
	MOVAPD X5, X3;         \
	MULPD  X7, X3;         \
	ADDPD  X6, X3;         \
	MOVAPD X5, X0;         \
	MULPD  X9, X0;         \
	ADDPD  X8, X0;         \
	MULPD  X2, X0;         \
	ADDPD  X3, X0;         \
	MULPD  X2, X0;         \
	ADDPD  X5, X0;         \
	MOVSD  (R8)(AX*8), X2; \
	MOVHPD (R8)(BX*8), X2; \
	PADDQ  X4, X2;         \
	MULPD  X2, X0;         \
	ADDPD  X2, X0;         \
	ORPD   X1, X0

// func expNegSSE(dst, a *float64, n int)
//
// dst[i] = e^(−a[i]) for i < n, as specified at ExpNeg, two elements per
// step and an odd last one alone in the low lane (the high lane then
// computes e^−0 and is dropped). Each pair is loaded before it is stored,
// so dst may be a. SSE2 only — part of the amd64 baseline.
TEXT ·expNegSSE(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ n+16(FP), CX
	LEAQ ·exp2Table(SB), R8
	MOVQ $0x8000000000000000, AX
	MOVQ AX, X15
	UNPCKLPD X15, X15
	BCAST(·expNegMax(SB), X14)
	BCAST(·expNegInv(SB), X13)
	BCAST(·expMagic(SB), X12)
	BCAST(·expNegHi(SB), X11)
	BCAST(·expNegLo(SB), X10)
	BCAST(·expC5(SB), X9)
	BCAST(·expC4(SB), X8)
	BCAST(·expC3(SB), X7)
	BCAST(·expC2(SB), X6)

pair:
	CMPQ   CX, $2
	JL     last
	MOVUPD (SI), X0
	EXPNEG
	MOVUPD X0, (DI)
	ADDQ   $16, SI
	ADDQ   $16, DI
	SUBQ   $2, CX
	JMP    pair

last:
	TESTQ CX, CX
	JE    done
	MOVSD (SI), X0
	EXPNEG
	MOVSD X0, (DI)

done:
	RET
