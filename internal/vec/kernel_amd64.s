#include "textflag.h"

// SSE2 bodies of the L2 kernels (see kernel_amd64.go). Each follows
// l2sq4's arithmetic exactly: SSE lane j is the Go kernel's accumulator
// s_j, every step is SUBPS, MULPS, ADDPS (never fused), a dim % 4 tail
// is added into lane 0 after the main loop, and the fold is
// (s0+s1)+(s2+s3). The four-row entries run four independent rows'
// chains in one loop; each row's chain is the one-row chain.
//
// Register use: SI query, R8–R11 rows, CX dim, DX dim rounded down to
// a multiple of 4, AX element index, X0–X3 accumulators, X4 the query
// step, X5–X12 scratch, X13 zero (U8 widening).

// FOLD leaves (s0+s1)+(s2+s3) of acc in acc's lane 0; t is clobbered.
#define FOLD(acc, t) \
	PSHUFD  $0xB1, acc, t; \
	ADDPS   t, acc; \
	MOVHLPS acc, t; \
	ADDSS   t, acc

// STEP4 adds the squared differences of the query step X4 and a row
// step already in x into acc, lane by lane; d is clobbered.
#define STEP4(x, d, acc) \
	MOVAPS X4, d; \
	SUBPS  x, d; \
	MULPS  d, d; \
	ADDPS  d, acc

// STEP1 adds the squared difference of the query element in X4's lane 0
// and a row element in x's lane 0 into acc's lane 0; d is clobbered.
#define STEP1(x, d, acc) \
	MOVAPS X4, d; \
	SUBSS  x, d; \
	MULSS  d, d; \
	ADDSS  d, acc

// WIDEN4 loads four bytes from mem and widens them exactly to four
// float32 in x (X13 must be zero).
#define WIDEN4(mem, x) \
	MOVSS     mem, x; \
	PUNPCKLBW X13, x; \
	PUNPCKLWL X13, x; \
	CVTPL2PS  x, x

// WIDEN1 loads one byte from mem and converts it exactly into x's
// lane 0; BX is clobbered.
#define WIDEN1(mem, x) \
	MOVBLZX  mem, BX; \
	CVTSL2SS BX, x

// func l2sqF32x1(a, b []float32) float32
TEXT ·l2sqF32x1(SB), NOSPLIT, $0-52
	MOVQ  a_base+0(FP), SI
	MOVQ  a_len+8(FP), CX
	MOVQ  b_base+24(FP), R8
	XORPS X0, X0
	MOVQ  CX, DX
	ANDQ  $~3, DX
	XORQ  AX, AX

f1loop:
	CMPQ   AX, DX
	JGE    f1tail
	MOVUPS (SI)(AX*4), X4
	MOVUPS (R8)(AX*4), X5
	STEP4(X5, X9, X0)
	ADDQ   $4, AX
	JMP    f1loop

f1tail:
	CMPQ  AX, CX
	JGE   f1fold
	MOVSS (SI)(AX*4), X4
	MOVSS (R8)(AX*4), X5
	STEP1(X5, X9, X0)
	INCQ  AX
	JMP   f1tail

f1fold:
	FOLD(X0, X9)
	MOVSS X0, ret+48(FP)
	RET

// func l2sqF32x4(q, r0, r1, r2, r3 []float32) (d0, d1, d2, d3 float32)
TEXT ·l2sqF32x4(SB), NOSPLIT, $0-136
	MOVQ  q_base+0(FP), SI
	MOVQ  q_len+8(FP), CX
	MOVQ  r0_base+24(FP), R8
	MOVQ  r1_base+48(FP), R9
	MOVQ  r2_base+72(FP), R10
	MOVQ  r3_base+96(FP), R11
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	MOVQ  CX, DX
	ANDQ  $~3, DX
	XORQ  AX, AX

f4loop:
	CMPQ   AX, DX
	JGE    f4tail
	MOVUPS (SI)(AX*4), X4
	MOVUPS (R8)(AX*4), X5
	MOVUPS (R9)(AX*4), X6
	MOVUPS (R10)(AX*4), X7
	MOVUPS (R11)(AX*4), X8
	STEP4(X5, X9, X0)
	STEP4(X6, X10, X1)
	STEP4(X7, X11, X2)
	STEP4(X8, X12, X3)
	ADDQ   $4, AX
	JMP    f4loop

f4tail:
	CMPQ  AX, CX
	JGE   f4fold
	MOVSS (SI)(AX*4), X4
	MOVSS (R8)(AX*4), X5
	MOVSS (R9)(AX*4), X6
	MOVSS (R10)(AX*4), X7
	MOVSS (R11)(AX*4), X8
	STEP1(X5, X9, X0)
	STEP1(X6, X10, X1)
	STEP1(X7, X11, X2)
	STEP1(X8, X12, X3)
	INCQ  AX
	JMP   f4tail

f4fold:
	FOLD(X0, X9)
	FOLD(X1, X10)
	FOLD(X2, X11)
	FOLD(X3, X12)
	MOVSS X0, d0+120(FP)
	MOVSS X1, d1+124(FP)
	MOVSS X2, d2+128(FP)
	MOVSS X3, d3+132(FP)
	RET

// func l2sqU8x1(a []float32, b []byte) float32
TEXT ·l2sqU8x1(SB), NOSPLIT, $0-52
	MOVQ  a_base+0(FP), SI
	MOVQ  a_len+8(FP), CX
	MOVQ  b_base+24(FP), R8
	XORPS X0, X0
	PXOR  X13, X13
	MOVQ  CX, DX
	ANDQ  $~3, DX
	XORQ  AX, AX

u1loop:
	CMPQ   AX, DX
	JGE    u1tail
	MOVUPS (SI)(AX*4), X4
	WIDEN4((R8)(AX*1), X5)
	STEP4(X5, X9, X0)
	ADDQ   $4, AX
	JMP    u1loop

u1tail:
	CMPQ  AX, CX
	JGE   u1fold
	MOVSS (SI)(AX*4), X4
	WIDEN1((R8)(AX*1), X5)
	STEP1(X5, X9, X0)
	INCQ  AX
	JMP   u1tail

u1fold:
	FOLD(X0, X9)
	MOVSS X0, ret+48(FP)
	RET

// func l2sqU8x4(q []float32, b0, b1, b2, b3 []byte) (d0, d1, d2, d3 float32)
TEXT ·l2sqU8x4(SB), NOSPLIT, $0-136
	MOVQ  q_base+0(FP), SI
	MOVQ  q_len+8(FP), CX
	MOVQ  b0_base+24(FP), R8
	MOVQ  b1_base+48(FP), R9
	MOVQ  b2_base+72(FP), R10
	MOVQ  b3_base+96(FP), R11
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	PXOR  X13, X13
	MOVQ  CX, DX
	ANDQ  $~3, DX
	XORQ  AX, AX

u4loop:
	CMPQ   AX, DX
	JGE    u4tail
	MOVUPS (SI)(AX*4), X4
	WIDEN4((R8)(AX*1), X5)
	WIDEN4((R9)(AX*1), X6)
	WIDEN4((R10)(AX*1), X7)
	WIDEN4((R11)(AX*1), X8)
	STEP4(X5, X9, X0)
	STEP4(X6, X10, X1)
	STEP4(X7, X11, X2)
	STEP4(X8, X12, X3)
	ADDQ   $4, AX
	JMP    u4loop

u4tail:
	CMPQ  AX, CX
	JGE   u4fold
	MOVSS (SI)(AX*4), X4
	WIDEN1((R8)(AX*1), X5)
	WIDEN1((R9)(AX*1), X6)
	WIDEN1((R10)(AX*1), X7)
	WIDEN1((R11)(AX*1), X8)
	STEP1(X5, X9, X0)
	STEP1(X6, X10, X1)
	STEP1(X7, X11, X2)
	STEP1(X8, X12, X3)
	INCQ  AX
	JMP   u4tail

u4fold:
	FOLD(X0, X9)
	FOLD(X1, X10)
	FOLD(X2, X11)
	FOLD(X3, X12)
	MOVSS X0, d0+120(FP)
	MOVSS X1, d1+124(FP)
	MOVSS X2, d2+128(FP)
	MOVSS X3, d3+132(FP)
	RET
