//go:build amd64 && !purego

#include "textflag.h"

// func gemv32SSE(dst, w, x *float32, rows, cols int)
//
// dst[i] += dot(w[i*cols : (i+1)*cols], x[:cols]) for every row i.
//
// Schedule (fixed; the per-platform determinism contract of the f32
// kernels): four 4-wide accumulators X0..X3 consume 16 elements per
// iteration, a 4-wide loop drains remaining quads into X0, the vector
// accumulators reduce as (X0+X1)+(X2+X3) then horizontally as
// (l0+l2)+(l1+l3), and a scalar tail folds the last <4 elements in
// sequentially. SSE2 only — part of the amd64 baseline.
TEXT ·gemv32SSE(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ w+8(FP), SI
	MOVQ x+16(FP), R8
	MOVQ rows+24(FP), R9
	MOVQ cols+32(FP), R10

rowloop:
	TESTQ R9, R9
	JE    done
	MOVQ  R8, DX  // x cursor rewinds per row
	MOVQ  R10, CX // remaining elements
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3

blk16:
	CMPQ   CX, $16
	JL     blk4
	MOVUPS (SI), X4
	MOVUPS (DX), X5
	MULPS  X5, X4
	ADDPS  X4, X0
	MOVUPS 16(SI), X5
	MOVUPS 16(DX), X6
	MULPS  X6, X5
	ADDPS  X5, X1
	MOVUPS 32(SI), X6
	MOVUPS 32(DX), X7
	MULPS  X7, X6
	ADDPS  X6, X2
	MOVUPS 48(SI), X7
	MOVUPS 48(DX), X8
	MULPS  X8, X7
	ADDPS  X7, X3
	ADDQ   $64, SI
	ADDQ   $64, DX
	SUBQ   $16, CX
	JMP    blk16

blk4:
	CMPQ   CX, $4
	JL     reduce
	MOVUPS (SI), X4
	MOVUPS (DX), X5
	MULPS  X5, X4
	ADDPS  X4, X0
	ADDQ   $16, SI
	ADDQ   $16, DX
	SUBQ   $4, CX
	JMP    blk4

reduce:
	ADDPS  X1, X0
	ADDPS  X3, X2
	ADDPS  X2, X0
	PSHUFD $0x4E, X0, X1 // lanes [2,3,0,1]
	ADDPS  X1, X0        // lane0 = l0+l2, lane1 = l1+l3
	PSHUFD $0x01, X0, X1 // lane0 = lane1
	ADDSS  X1, X0        // lane0 = (l0+l2)+(l1+l3)

tail:
	TESTQ CX, CX
	JE    store
	MOVSS (SI), X4
	MOVSS (DX), X5
	MULSS X5, X4
	ADDSS X4, X0
	ADDQ  $4, SI
	ADDQ  $4, DX
	DECQ  CX
	JMP   tail

store:
	MOVSS (DI), X4
	ADDSS X4, X0
	MOVSS X0, (DI)
	ADDQ  $4, DI
	DECQ  R9
	JMP   rowloop

done:
	RET

// func dotsI8SSE(dots *int32, w, x *int8, rows, cols int)
//
// dots[i] = Σ_j w[i][j]·x[j] with int32 accumulation, one row at a time.
// 16 int8 codes per iteration: sign-extend both operands to int16 via the
// PCMPGTB/PUNPCK idiom, multiply-accumulate pairs into 4 int32 lanes with
// PMADDWL (products are ≤ 127², so pair sums cannot overflow int16×2 in
// int32), reduce lanes, and fold a scalar tail. Integer arithmetic is
// exact, so the result equals the portable loop bit for bit.
TEXT ·dotsI8SSE(SB), NOSPLIT, $0-40
	MOVQ dots+0(FP), DI
	MOVQ w+8(FP), SI
	MOVQ x+16(FP), R8
	MOVQ rows+24(FP), R9
	MOVQ cols+32(FP), R10

i8rowloop:
	TESTQ R9, R9
	JE    i8done
	MOVQ  R8, DX
	MOVQ  R10, CX
	PXOR  X0, X0 // 4-lane int32 accumulator
	XORQ  AX, AX // scalar tail accumulator

i8blk16:
	CMPQ      CX, $16
	JL        i8tail
	MOVOU     (SI), X1 // 16 weight codes
	MOVOU     (DX), X2 // 16 input codes
	PXOR      X3, X3
	PCMPGTB   X1, X3   // X3 = 0xFF where w byte < 0
	PXOR      X4, X4
	PCMPGTB   X2, X4   // X4 = 0xFF where x byte < 0
	MOVOU     X1, X5
	PUNPCKLBW X3, X1   // low 8 w codes → int16
	PUNPCKHBW X3, X5   // high 8 w codes → int16
	MOVOU     X2, X6
	PUNPCKLBW X4, X2   // low 8 x codes → int16
	PUNPCKHBW X4, X6   // high 8 x codes → int16
	PMADDWL   X2, X1   // 4 int32 pair-sums of low products
	PMADDWL   X6, X5   // 4 int32 pair-sums of high products
	PADDD     X1, X0
	PADDD     X5, X0
	ADDQ      $16, SI
	ADDQ      $16, DX
	SUBQ      $16, CX
	JMP       i8blk16

i8tail:
	TESTQ   CX, CX
	JE      i8reduce
	MOVBQSX (SI), BX
	MOVBQSX (DX), R11
	IMULQ   R11, BX
	ADDQ    BX, AX
	INCQ    SI
	INCQ    DX
	DECQ    CX
	JMP     i8tail

i8reduce:
	PSHUFD $0x4E, X0, X1
	PADDD  X1, X0
	PSHUFD $0x01, X0, X1
	PADDD  X1, X0
	MOVQ   X0, BX      // low 32 bits hold the lane sum
	ADDL   BX, AX
	MOVL   AX, (DI)
	ADDQ   $4, DI
	DECQ   R9
	JMP    i8rowloop

i8done:
	RET
