#include "textflag.h"

// AVX2 bodies of the L2 kernels (see kernel_amd64.go). Each follows
// l2sq4's arithmetic exactly. An 8-element step subtracts and squares
// 8 lanes at once (VSUBPS, VMULPS, never fused), then adds the low
// 4-lane half into the 4-lane accumulator and after it the high half,
// so accumulator lane j still sums elements j, j+4, j+8, … in step
// order, as the Go kernel's s_j does. A dim % 8 ≥ 4 remainder is one
// 4-lane step, a dim % 4 tail is added into lane 0, and the fold is
// (s0+s1)+(s2+s3). The four-row entries run four independent rows'
// chains in one loop; each row's chain is the one-row chain.
//
// Every entry first tests useAVX2 (set once at init) and, when it is
// false, jumps to the Go body with the same frame.
//
// Register use: SI query, R8–R11 rows, CX dim, DX dim rounded down to
// a multiple of 8, AX element index, X0–X3 accumulators, Y4 the query
// step, Y5–Y12 scratch.

// STEP8 squares the 8-lane difference already in yd and adds its low
// half xd (the same register), then its high half, into acc; t is
// clobbered.
#define STEP8(yd, xd, t, acc) \
	VMULPS       yd, yd, yd; \
	VADDPS       xd, acc, acc; \
	VEXTRACTF128 $1, yd, t; \
	VADDPS       t, acc, acc

// FOLD leaves (s0+s1)+(s2+s3) of acc in acc's lane 0; t is clobbered.
#define FOLD(acc, t) \
	VPSHUFD  $0xB1, acc, t; \
	VADDPS   t, acc, acc; \
	VMOVHLPS acc, t, t; \
	VADDSS   t, acc, acc

// STEP4 adds the squared differences of the query step X4 and a row
// step x into acc, lane by lane; d is clobbered.
#define STEP4(x, d, acc) \
	VSUBPS x, X4, d; \
	VMULPS d, d, d; \
	VADDPS d, acc, acc

// STEP1 adds the squared difference of the query element in X4's lane 0
// and a row element in x's lane 0 into acc's lane 0; d is clobbered.
#define STEP1(x, d, acc) \
	VSUBSS x, X4, d; \
	VMULSS d, d, d; \
	VADDSS d, acc, acc

// WIDEN1 loads one byte from mem and converts it exactly into x's
// lane 0; BX is clobbered.
#define WIDEN1(mem, x) \
	MOVBLZX    mem, BX; \
	VCVTSI2SSL BX, x, x

// func l2sqF32x1(a, b []float32) float32
TEXT ·l2sqF32x1(SB), NOSPLIT, $0-52
	CMPB   ·useAVX2(SB), $1
	JEQ    2(PC)
	JMP    ·l2sq4(SB)
	MOVQ   a_base+0(FP), SI
	MOVQ   a_len+8(FP), CX
	MOVQ   b_base+24(FP), R8
	VXORPS X0, X0, X0
	MOVQ   CX, DX
	ANDQ   $~7, DX
	XORQ   AX, AX

f1loop:
	CMPQ    AX, DX
	JGE     f1rem
	VMOVUPS (SI)(AX*4), Y4
	VSUBPS  (R8)(AX*4), Y4, Y9
	STEP8(Y9, X9, X10, X0)
	ADDQ    $8, AX
	JMP     f1loop

f1rem:
	LEAQ    4(AX), BX
	CMPQ    BX, CX
	JGT     f1tail
	VMOVUPS (SI)(AX*4), X4
	VMOVUPS (R8)(AX*4), X5
	STEP4(X5, X9, X0)
	MOVQ    BX, AX

f1tail:
	CMPQ   AX, CX
	JGE    f1fold
	VMOVSS (SI)(AX*4), X4
	VMOVSS (R8)(AX*4), X5
	STEP1(X5, X9, X0)
	INCQ   AX
	JMP    f1tail

f1fold:
	FOLD(X0, X9)
	VMOVSS X0, ret+48(FP)
	VZEROUPPER
	RET

// func l2sqF32x4(q, r0, r1, r2, r3 []float32) (d0, d1, d2, d3 float32)
TEXT ·l2sqF32x4(SB), NOSPLIT, $0-136
	CMPB   ·useAVX2(SB), $1
	JEQ    2(PC)
	JMP    ·l2sq4Rows4(SB)
	MOVQ   q_base+0(FP), SI
	MOVQ   q_len+8(FP), CX
	MOVQ   r0_base+24(FP), R8
	MOVQ   r1_base+48(FP), R9
	MOVQ   r2_base+72(FP), R10
	MOVQ   r3_base+96(FP), R11
	VXORPS X0, X0, X0
	VXORPS X1, X1, X1
	VXORPS X2, X2, X2
	VXORPS X3, X3, X3
	MOVQ   CX, DX
	ANDQ   $~7, DX
	XORQ   AX, AX

f4loop:
	CMPQ    AX, DX
	JGE     f4rem
	VMOVUPS (SI)(AX*4), Y4
	VSUBPS  (R8)(AX*4), Y4, Y5
	VSUBPS  (R9)(AX*4), Y4, Y6
	VSUBPS  (R10)(AX*4), Y4, Y7
	VSUBPS  (R11)(AX*4), Y4, Y8
	STEP8(Y5, X5, X9, X0)
	STEP8(Y6, X6, X10, X1)
	STEP8(Y7, X7, X11, X2)
	STEP8(Y8, X8, X12, X3)
	ADDQ    $8, AX
	JMP     f4loop

f4rem:
	LEAQ    4(AX), BX
	CMPQ    BX, CX
	JGT     f4tail
	VMOVUPS (SI)(AX*4), X4
	VMOVUPS (R8)(AX*4), X5
	VMOVUPS (R9)(AX*4), X6
	VMOVUPS (R10)(AX*4), X7
	VMOVUPS (R11)(AX*4), X8
	STEP4(X5, X9, X0)
	STEP4(X6, X10, X1)
	STEP4(X7, X11, X2)
	STEP4(X8, X12, X3)
	MOVQ    BX, AX

f4tail:
	CMPQ   AX, CX
	JGE    f4fold
	VMOVSS (SI)(AX*4), X4
	VMOVSS (R8)(AX*4), X5
	VMOVSS (R9)(AX*4), X6
	VMOVSS (R10)(AX*4), X7
	VMOVSS (R11)(AX*4), X8
	STEP1(X5, X9, X0)
	STEP1(X6, X10, X1)
	STEP1(X7, X11, X2)
	STEP1(X8, X12, X3)
	INCQ   AX
	JMP    f4tail

f4fold:
	FOLD(X0, X9)
	FOLD(X1, X10)
	FOLD(X2, X11)
	FOLD(X3, X12)
	VMOVSS X0, d0+120(FP)
	VMOVSS X1, d1+124(FP)
	VMOVSS X2, d2+128(FP)
	VMOVSS X3, d3+132(FP)
	VZEROUPPER
	RET

// func l2sqU8x1(a []float32, b []byte) float32
TEXT ·l2sqU8x1(SB), NOSPLIT, $0-52
	CMPB   ·useAVX2(SB), $1
	JEQ    2(PC)
	JMP    ·l2sqU8(SB)
	MOVQ   a_base+0(FP), SI
	MOVQ   a_len+8(FP), CX
	MOVQ   b_base+24(FP), R8
	VXORPS X0, X0, X0
	MOVQ   CX, DX
	ANDQ   $~7, DX
	XORQ   AX, AX

u1loop:
	CMPQ      AX, DX
	JGE       u1rem
	VMOVUPS   (SI)(AX*4), Y4
	VPMOVZXBD (R8)(AX*1), Y5
	VCVTDQ2PS Y5, Y5
	VSUBPS    Y5, Y4, Y9
	STEP8(Y9, X9, X10, X0)
	ADDQ      $8, AX
	JMP       u1loop

u1rem:
	LEAQ      4(AX), BX
	CMPQ      BX, CX
	JGT       u1tail
	VMOVUPS   (SI)(AX*4), X4
	VPMOVZXBD (R8)(AX*1), X5
	VCVTDQ2PS X5, X5
	STEP4(X5, X9, X0)
	MOVQ      BX, AX

u1tail:
	CMPQ   AX, CX
	JGE    u1fold
	VMOVSS (SI)(AX*4), X4
	WIDEN1((R8)(AX*1), X5)
	STEP1(X5, X9, X0)
	INCQ   AX
	JMP    u1tail

u1fold:
	FOLD(X0, X9)
	VMOVSS X0, ret+48(FP)
	VZEROUPPER
	RET

// func l2sqU8x4(q []float32, b0, b1, b2, b3 []byte) (d0, d1, d2, d3 float32)
TEXT ·l2sqU8x4(SB), NOSPLIT, $0-136
	CMPB   ·useAVX2(SB), $1
	JEQ    2(PC)
	JMP    ·l2sqU8Rows4(SB)
	MOVQ   q_base+0(FP), SI
	MOVQ   q_len+8(FP), CX
	MOVQ   b0_base+24(FP), R8
	MOVQ   b1_base+48(FP), R9
	MOVQ   b2_base+72(FP), R10
	MOVQ   b3_base+96(FP), R11
	VXORPS X0, X0, X0
	VXORPS X1, X1, X1
	VXORPS X2, X2, X2
	VXORPS X3, X3, X3
	MOVQ   CX, DX
	ANDQ   $~7, DX
	XORQ   AX, AX

u4loop:
	CMPQ      AX, DX
	JGE       u4rem
	VMOVUPS   (SI)(AX*4), Y4
	VPMOVZXBD (R8)(AX*1), Y5
	VPMOVZXBD (R9)(AX*1), Y6
	VPMOVZXBD (R10)(AX*1), Y7
	VPMOVZXBD (R11)(AX*1), Y8
	VCVTDQ2PS Y5, Y5
	VCVTDQ2PS Y6, Y6
	VCVTDQ2PS Y7, Y7
	VCVTDQ2PS Y8, Y8
	VSUBPS    Y5, Y4, Y5
	VSUBPS    Y6, Y4, Y6
	VSUBPS    Y7, Y4, Y7
	VSUBPS    Y8, Y4, Y8
	STEP8(Y5, X5, X9, X0)
	STEP8(Y6, X6, X10, X1)
	STEP8(Y7, X7, X11, X2)
	STEP8(Y8, X8, X12, X3)
	ADDQ      $8, AX
	JMP       u4loop

u4rem:
	LEAQ      4(AX), BX
	CMPQ      BX, CX
	JGT       u4tail
	VMOVUPS   (SI)(AX*4), X4
	VPMOVZXBD (R8)(AX*1), X5
	VPMOVZXBD (R9)(AX*1), X6
	VPMOVZXBD (R10)(AX*1), X7
	VPMOVZXBD (R11)(AX*1), X8
	VCVTDQ2PS X5, X5
	VCVTDQ2PS X6, X6
	VCVTDQ2PS X7, X7
	VCVTDQ2PS X8, X8
	STEP4(X5, X9, X0)
	STEP4(X6, X10, X1)
	STEP4(X7, X11, X2)
	STEP4(X8, X12, X3)
	MOVQ      BX, AX

u4tail:
	CMPQ   AX, CX
	JGE    u4fold
	VMOVSS (SI)(AX*4), X4
	WIDEN1((R8)(AX*1), X5)
	WIDEN1((R9)(AX*1), X6)
	WIDEN1((R10)(AX*1), X7)
	WIDEN1((R11)(AX*1), X8)
	STEP1(X5, X9, X0)
	STEP1(X6, X10, X1)
	STEP1(X7, X11, X2)
	STEP1(X8, X12, X3)
	INCQ   AX
	JMP    u4tail

u4fold:
	FOLD(X0, X9)
	FOLD(X1, X10)
	FOLD(X2, X11)
	FOLD(X3, X12)
	VMOVSS X0, d0+120(FP)
	VMOVSS X1, d1+124(FP)
	VMOVSS X2, d2+128(FP)
	VMOVSS X3, d3+132(FP)
	VZEROUPPER
	RET

// FMA8 adds the squared differences of the query step q and the row
// step at mem into acc with one fused multiply-add; d is clobbered.
#define FMA8(q, mem, d, acc) \
	VSUBPS      mem, q, d; \
	VFMADD231PS d, d, acc

// func l2sqF32x4FMA(q, r0, r1, r2, r3 []float32) (d0, d1, d2, d3 float32)
//
// The order-free four-row body, run only on byte-valued operands
// (kernel.go, l2sqByteValued), where every partial sum is an exact
// integer and so any accumulation order and a fused multiply-add give
// l2sq4's bits. Each row has two 8-lane accumulators, Y0–Y3 for the
// even and Y4–Y7 for the odd 8-element step of a 16-element iteration,
// so eight independent VFMADD231PS chains are in flight. Then one
// 8-element step, a fold to 4 lanes, one 4-lane step, a scalar tail
// into lane 0 and the (s0+s1)+(s2+s3) fold. The entry tests useFMA
// and otherwise jumps to l2sq4Rows4.
//
// Register use: SI query, R8–R11 rows, CX dim, DX dim rounded down to
// a multiple of 16, AX element index, Y0–Y7 accumulators, Y8/Y9 the
// query steps, Y10–Y13 scratch.
TEXT ·l2sqF32x4FMA(SB), NOSPLIT, $0-136
	CMPB   ·useFMA(SB), $1
	JEQ    2(PC)
	JMP    ·l2sq4Rows4(SB)
	MOVQ   q_base+0(FP), SI
	MOVQ   q_len+8(FP), CX
	MOVQ   r0_base+24(FP), R8
	MOVQ   r1_base+48(FP), R9
	MOVQ   r2_base+72(FP), R10
	MOVQ   r3_base+96(FP), R11
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	MOVQ   CX, DX
	ANDQ   $~15, DX
	XORQ   AX, AX

e16loop:
	CMPQ    AX, DX
	JGE     e8
	VMOVUPS (SI)(AX*4), Y8
	VMOVUPS 32(SI)(AX*4), Y9
	FMA8(Y8, (R8)(AX*4), Y10, Y0)
	FMA8(Y8, (R9)(AX*4), Y11, Y1)
	FMA8(Y8, (R10)(AX*4), Y12, Y2)
	FMA8(Y8, (R11)(AX*4), Y13, Y3)
	FMA8(Y9, 32(R8)(AX*4), Y10, Y4)
	FMA8(Y9, 32(R9)(AX*4), Y11, Y5)
	FMA8(Y9, 32(R10)(AX*4), Y12, Y6)
	FMA8(Y9, 32(R11)(AX*4), Y13, Y7)
	ADDQ    $16, AX
	JMP     e16loop

e8:
	VADDPS  Y4, Y0, Y0
	VADDPS  Y5, Y1, Y1
	VADDPS  Y6, Y2, Y2
	VADDPS  Y7, Y3, Y3
	LEAQ    8(AX), BX
	CMPQ    BX, CX
	JGT     e4
	VMOVUPS (SI)(AX*4), Y8
	FMA8(Y8, (R8)(AX*4), Y10, Y0)
	FMA8(Y8, (R9)(AX*4), Y11, Y1)
	FMA8(Y8, (R10)(AX*4), Y12, Y2)
	FMA8(Y8, (R11)(AX*4), Y13, Y3)
	MOVQ    BX, AX

e4:
	VEXTRACTF128 $1, Y0, X10
	VEXTRACTF128 $1, Y1, X11
	VEXTRACTF128 $1, Y2, X12
	VEXTRACTF128 $1, Y3, X13
	VADDPS       X10, X0, X0
	VADDPS       X11, X1, X1
	VADDPS       X12, X2, X2
	VADDPS       X13, X3, X3
	LEAQ         4(AX), BX
	CMPQ         BX, CX
	JGT          e1
	VMOVUPS      (SI)(AX*4), X8
	FMA8(X8, (R8)(AX*4), X10, X0)
	FMA8(X8, (R9)(AX*4), X11, X1)
	FMA8(X8, (R10)(AX*4), X12, X2)
	FMA8(X8, (R11)(AX*4), X13, X3)
	MOVQ         BX, AX

e1:
	CMPQ        AX, CX
	JGE         efold
	VMOVSS      (SI)(AX*4), X8
	VSUBSS      (R8)(AX*4), X8, X10
	VSUBSS      (R9)(AX*4), X8, X11
	VSUBSS      (R10)(AX*4), X8, X12
	VSUBSS      (R11)(AX*4), X8, X13
	VFMADD231SS X10, X10, X0
	VFMADD231SS X11, X11, X1
	VFMADD231SS X12, X12, X2
	VFMADD231SS X13, X13, X3
	INCQ        AX
	JMP         e1

efold:
	FOLD(X0, X10)
	FOLD(X1, X11)
	FOLD(X2, X12)
	FOLD(X3, X13)
	VMOVSS X0, d0+120(FP)
	VMOVSS X1, d1+124(FP)
	VMOVSS X2, d2+128(FP)
	VMOVSS X3, d3+132(FP)
	VZEROUPPER
	RET
