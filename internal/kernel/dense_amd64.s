//go:build !purego

#include "textflag.h"

// The vector dense kernels (dense.go states the contract and the table
// layout). A table row is its cols a's followed by its cols b's, complex128
// each; a chunk of packed complex inputs [xr0 xi0 xr1 xi1 …] becomes
// [xr0 xr0 xr1 xr1 …] (VMOVDDUP) and [xi0 xi0 xi1 xi1 …] (VPERMILPD), and
// one FMA against the a-stream and one against the b-stream accumulate the
// real and imaginary parts of a·Re x and b·Im x lane by lane. One
// right-hand side walks the rows in pairs that share each input chunk's
// load and shuffles; two right-hand sides walk them one at a time and share
// each table chunk's load (in a block of 16 M->L inputs that is 1.6x faster
// per input than one at a time, a single apply 1.2x slower). Either way four
// accumulator chains run; the last chunk of a row is masked (AVX-512) or a
// single 128-bit complex (AVX2), so nothing outside the slices is read. The
// dot of the table builds has the same shape with the roles swapped.

// Sum the four complex lanes of Z(A)+Z(B) into X(A); Y(B) is scratch.
#define REDUCE512(ZA, ZB, YA, YB, XA, XB) \
	VADDPD        ZB, ZA, ZA \
	VEXTRACTF64X4 $1, ZA, YB \
	VADDPD        YB, YA, YA \
	VEXTRACTF128  $1, YA, XB \
	VADDPD        XB, XA, XA

// Sum the two complex lanes of Y(A)+Y(B) into X(A); X(B) is scratch.
#define REDUCE256(YA, YB, XA, XB) \
	VADDPD       YB, YA, YA \
	VEXTRACTF128 $1, YA, XB \
	VADDPD       XB, XA, XA

// func denseApplyAVX512(tab, in, out []complex128)
//
// Registers: SI row i's a-stream, R13 its b-stream, BX and CX row i+1's;
// DI the input, DX out[i], R8 rows left, R9 the row stride (32·cols bytes),
// R10 the b-stream offset (16·cols), R12 the bytes of whole chunks, AX the
// chunk offset, K1 the tail chunk's lanes.
TEXT ·denseApplyAVX512(SB), NOSPLIT, $0-72
	MOVQ tab_base+0(FP), SI
	MOVQ in_base+24(FP), DI
	MOVQ in_len+32(FP), CX
	MOVQ out_base+48(FP), DX
	MOVQ out_len+56(FP), R8
	TESTQ CX, CX
	JZ    done512
	MOVQ CX, R9
	SHLQ $5, R9
	MOVQ CX, R10
	SHLQ $4, R10
	MOVQ CX, R12
	ANDQ $-4, R12
	SHLQ $4, R12
	ANDQ $3, CX
	SHLQ $1, CX          // tail lanes: 0, 2, 4 or 6
	MOVL $1, AX
	SHLL CX, AX
	DECL AX
	KMOVW AX, K1

pair512:
	CMPQ R8, $2
	JLT  single512
	LEAQ (SI)(R10*1), R13
	LEAQ (SI)(R9*1), BX
	LEAQ (BX)(R10*1), CX
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	XORQ AX, AX
	CMPQ AX, R12
	JGE  ptail512

pchunk512:
	VMOVUPD     (DI)(AX*1), Z0
	VMOVDDUP    Z0, Z1
	VPERMILPD   $0xff, Z0, Z2
	VFMADD231PD (SI)(AX*1), Z1, Z4
	VFMADD231PD (R13)(AX*1), Z2, Z5
	VFMADD231PD (BX)(AX*1), Z1, Z6
	VFMADD231PD (CX)(AX*1), Z2, Z7
	ADDQ $64, AX
	CMPQ AX, R12
	JLT  pchunk512

ptail512:
	KORTESTW K1, K1
	JZ       preduce512
	VMOVUPD.Z   (DI)(AX*1), K1, Z0
	VMOVDDUP    Z0, Z1
	VPERMILPD   $0xff, Z0, Z2
	VFMADD231PD (SI)(AX*1), Z1, K1, Z4
	VFMADD231PD (R13)(AX*1), Z2, K1, Z5
	VFMADD231PD (BX)(AX*1), Z1, K1, Z6
	VFMADD231PD (CX)(AX*1), Z2, K1, Z7

preduce512:
	REDUCE512(Z4, Z5, Y4, Y5, X4, X5)
	REDUCE512(Z6, Z7, Y6, Y7, X6, X7)
	VADDPD  (DX), X4, X4
	VMOVUPD X4, (DX)
	VADDPD  16(DX), X6, X6
	VMOVUPD X6, 16(DX)
	ADDQ $32, DX
	LEAQ (SI)(R9*2), SI
	SUBQ $2, R8
	JMP  pair512

single512:
	TESTQ R8, R8
	JZ    done512
	LEAQ (SI)(R10*1), R13
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	XORQ AX, AX
	CMPQ AX, R12
	JGE  stail512

schunk512:
	VMOVUPD     (DI)(AX*1), Z0
	VMOVDDUP    Z0, Z1
	VPERMILPD   $0xff, Z0, Z2
	VFMADD231PD (SI)(AX*1), Z1, Z4
	VFMADD231PD (R13)(AX*1), Z2, Z5
	ADDQ $64, AX
	CMPQ AX, R12
	JLT  schunk512

stail512:
	KORTESTW K1, K1
	JZ       sreduce512
	VMOVUPD.Z   (DI)(AX*1), K1, Z0
	VMOVDDUP    Z0, Z1
	VPERMILPD   $0xff, Z0, Z2
	VFMADD231PD (SI)(AX*1), Z1, K1, Z4
	VFMADD231PD (R13)(AX*1), Z2, K1, Z5

sreduce512:
	REDUCE512(Z4, Z5, Y4, Y5, X4, X5)
	VADDPD  (DX), X4, X4
	VMOVUPD X4, (DX)

done512:
	VZEROUPPER
	RET

// func denseApplyAVX2(tab, in, out []complex128)
//
// denseApplyAVX512's walk two complex lanes at a time; R11 is 1 when cols
// is odd, the single complex that ends each row.
TEXT ·denseApplyAVX2(SB), NOSPLIT, $0-72
	MOVQ tab_base+0(FP), SI
	MOVQ in_base+24(FP), DI
	MOVQ in_len+32(FP), CX
	MOVQ out_base+48(FP), DX
	MOVQ out_len+56(FP), R8
	TESTQ CX, CX
	JZ    done256
	MOVQ CX, R9
	SHLQ $5, R9
	MOVQ CX, R10
	SHLQ $4, R10
	MOVQ CX, R12
	ANDQ $-2, R12
	SHLQ $4, R12
	MOVQ CX, R11
	ANDQ $1, R11

pair256:
	CMPQ R8, $2
	JLT  single256
	LEAQ (SI)(R10*1), R13
	LEAQ (SI)(R9*1), BX
	LEAQ (BX)(R10*1), CX
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	XORQ AX, AX
	CMPQ AX, R12
	JGE  ptail256

pchunk256:
	VMOVUPD     (DI)(AX*1), Y0
	VMOVDDUP    Y0, Y1
	VPERMILPD   $0xf, Y0, Y2
	VFMADD231PD (SI)(AX*1), Y1, Y4
	VFMADD231PD (R13)(AX*1), Y2, Y5
	VFMADD231PD (BX)(AX*1), Y1, Y6
	VFMADD231PD (CX)(AX*1), Y2, Y7
	ADDQ $32, AX
	CMPQ AX, R12
	JLT  pchunk256

ptail256:
	TESTQ R11, R11
	JZ    preduce256
	VMOVUPD     (DI)(AX*1), X0
	VMOVDDUP    X0, X1
	VPERMILPD   $0x3, X0, X2
	VMULPD      (SI)(AX*1), X1, X3
	VFMADD231PD (R13)(AX*1), X2, X3
	VADDPD      Y3, Y4, Y4
	VMULPD      (BX)(AX*1), X1, X3
	VFMADD231PD (CX)(AX*1), X2, X3
	VADDPD      Y3, Y6, Y6

preduce256:
	REDUCE256(Y4, Y5, X4, X5)
	REDUCE256(Y6, Y7, X6, X7)
	VADDPD  (DX), X4, X4
	VMOVUPD X4, (DX)
	VADDPD  16(DX), X6, X6
	VMOVUPD X6, 16(DX)
	ADDQ $32, DX
	LEAQ (SI)(R9*2), SI
	SUBQ $2, R8
	JMP  pair256

single256:
	TESTQ R8, R8
	JZ    done256
	LEAQ (SI)(R10*1), R13
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	XORQ AX, AX
	CMPQ AX, R12
	JGE  stail256

schunk256:
	VMOVUPD     (DI)(AX*1), Y0
	VMOVDDUP    Y0, Y1
	VPERMILPD   $0xf, Y0, Y2
	VFMADD231PD (SI)(AX*1), Y1, Y4
	VFMADD231PD (R13)(AX*1), Y2, Y5
	ADDQ $32, AX
	CMPQ AX, R12
	JLT  schunk256

stail256:
	TESTQ R11, R11
	JZ    sreduce256
	VMOVUPD     (DI)(AX*1), X0
	VMOVDDUP    X0, X1
	VPERMILPD   $0x3, X0, X2
	VMULPD      (SI)(AX*1), X1, X3
	VFMADD231PD (R13)(AX*1), X2, X3
	VADDPD      Y3, Y4, Y4

sreduce256:
	REDUCE256(Y4, Y5, X4, X5)
	VADDPD  (DX), X4, X4
	VMOVUPD X4, (DX)

done256:
	VZEROUPPER
	RET

// func denseDotAVX512(p, s []complex128) (a, b complex128)
//
// a = Σ p_q Re s_q, b = Σ p_q Im s_q over q < len(p): the p-stream is the
// table's, the s-stream is duplicated like an input. Two chunks per step,
// four accumulator chains; SI p, DI s, R12 the bytes of whole chunks, R11
// those of whole chunk pairs, K1 the tail chunk's lanes.
TEXT ·denseDotAVX512(SB), NOSPLIT, $0-80
	MOVQ p_base+0(FP), SI
	MOVQ p_len+8(FP), CX
	MOVQ s_base+24(FP), DI
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	MOVQ CX, R12
	ANDQ $-4, R12
	SHLQ $4, R12
	MOVQ CX, R11
	ANDQ $-8, R11
	SHLQ $4, R11
	ANDQ $3, CX
	SHLQ $1, CX
	MOVL $1, AX
	SHLL CX, AX
	DECL AX
	KMOVW AX, K1
	XORQ AX, AX
	CMPQ AX, R11
	JGE  dchunk512

dpair512:
	VMOVUPD     (DI)(AX*1), Z0
	VMOVUPD     64(DI)(AX*1), Z8
	VMOVUPD     (SI)(AX*1), Z3
	VMOVUPD     64(SI)(AX*1), Z11
	VMOVDDUP    Z0, Z1
	VPERMILPD   $0xff, Z0, Z2
	VMOVDDUP    Z8, Z9
	VPERMILPD   $0xff, Z8, Z10
	VFMADD231PD Z3, Z1, Z4
	VFMADD231PD Z3, Z2, Z5
	VFMADD231PD Z11, Z9, Z6
	VFMADD231PD Z11, Z10, Z7
	ADDQ $128, AX
	CMPQ AX, R11
	JLT  dpair512

dchunk512:
	CMPQ AX, R12
	JGE  dtail512
	VMOVUPD     (DI)(AX*1), Z0
	VMOVUPD     (SI)(AX*1), Z3
	VMOVDDUP    Z0, Z1
	VPERMILPD   $0xff, Z0, Z2
	VFMADD231PD Z3, Z1, Z4
	VFMADD231PD Z3, Z2, Z5
	ADDQ $64, AX

dtail512:
	KORTESTW K1, K1
	JZ       dreduce512
	VMOVUPD.Z   (DI)(AX*1), K1, Z0
	VMOVUPD.Z   (SI)(AX*1), K1, Z3
	VMOVDDUP    Z0, Z1
	VPERMILPD   $0xff, Z0, Z2
	VFMADD231PD Z3, Z1, Z6
	VFMADD231PD Z3, Z2, Z7

dreduce512:
	REDUCE512(Z4, Z6, Y4, Y6, X4, X6)
	REDUCE512(Z5, Z7, Y5, Y7, X5, X7)
	VMOVSD  X4, a_real+48(FP)
	VMOVHPD X4, a_imag+56(FP)
	VMOVSD  X5, b_real+64(FP)
	VMOVHPD X5, b_imag+72(FP)
	VZEROUPPER
	RET

// func denseDotAVX2(p, s []complex128) (a, b complex128)
//
// denseDotAVX512's walk two complex lanes at a time; R11 holds the bytes of
// whole chunk pairs, R12 those of whole chunks, and an odd length ends in
// one 128-bit complex.
TEXT ·denseDotAVX2(SB), NOSPLIT, $0-80
	MOVQ p_base+0(FP), SI
	MOVQ p_len+8(FP), CX
	MOVQ s_base+24(FP), DI
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ CX, R12
	ANDQ $-2, R12
	SHLQ $4, R12
	MOVQ CX, R11
	ANDQ $-4, R11
	SHLQ $4, R11
	XORQ AX, AX
	CMPQ AX, R11
	JGE  dchunk256

dpair256:
	VMOVUPD     (DI)(AX*1), Y0
	VMOVUPD     32(DI)(AX*1), Y8
	VMOVUPD     (SI)(AX*1), Y3
	VMOVUPD     32(SI)(AX*1), Y11
	VMOVDDUP    Y0, Y1
	VPERMILPD   $0xf, Y0, Y2
	VMOVDDUP    Y8, Y9
	VPERMILPD   $0xf, Y8, Y10
	VFMADD231PD Y3, Y1, Y4
	VFMADD231PD Y3, Y2, Y5
	VFMADD231PD Y11, Y9, Y6
	VFMADD231PD Y11, Y10, Y7
	ADDQ $64, AX
	CMPQ AX, R11
	JLT  dpair256

dchunk256:
	CMPQ AX, R12
	JGE  dtail256
	VMOVUPD     (DI)(AX*1), Y0
	VMOVUPD     (SI)(AX*1), Y3
	VMOVDDUP    Y0, Y1
	VPERMILPD   $0xf, Y0, Y2
	VFMADD231PD Y3, Y1, Y4
	VFMADD231PD Y3, Y2, Y5
	ADDQ $32, AX

dtail256:
	TESTQ $1, CX
	JZ    dreduce256
	VMOVUPD     (DI)(AX*1), X0
	VMOVUPD     (SI)(AX*1), X3
	VMOVDDUP    X0, X1
	VPERMILPD   $0x3, X0, X2
	VMULPD      X3, X1, X1
	VMULPD      X3, X2, X2
	VADDPD      Y1, Y6, Y6
	VADDPD      Y2, Y7, Y7

dreduce256:
	REDUCE256(Y4, Y6, X4, X6)
	REDUCE256(Y5, Y7, X5, X7)
	VMOVSD  X4, a_real+48(FP)
	VMOVHPD X4, a_imag+56(FP)
	VMOVSD  X5, b_real+64(FP)
	VMOVHPD X5, b_imag+72(FP)
	VZEROUPPER
	RET

// func denseApply2AVX512(tab, in0, in1, out0, out1 []complex128)
//
// Two right-hand sides per pass over the table, one row at a time: each
// a- and b-chunk loaded feeds both. SI the a-stream, R13 the b-stream, DI
// and R11 the inputs, DX and R14 the outputs, R8 rows left, R9 the row
// stride, R10 the b-stream offset, R12 the bytes of whole chunks.
TEXT ·denseApply2AVX512(SB), NOSPLIT, $0-120
	MOVQ tab_base+0(FP), SI
	MOVQ in0_base+24(FP), DI
	MOVQ in0_len+32(FP), CX
	MOVQ in1_base+48(FP), R11
	MOVQ out0_base+72(FP), DX
	MOVQ out0_len+80(FP), R8
	MOVQ out1_base+96(FP), R14
	TESTQ CX, CX
	JZ    done2x512
	MOVQ CX, R9
	SHLQ $5, R9
	MOVQ CX, R10
	SHLQ $4, R10
	MOVQ CX, R12
	ANDQ $-4, R12
	SHLQ $4, R12
	ANDQ $3, CX
	SHLQ $1, CX
	MOVL $1, AX
	SHLL CX, AX
	DECL AX
	KMOVW AX, K1
	TESTQ R8, R8
	JZ    done2x512

row2x512:
	LEAQ (SI)(R10*1), R13
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	XORQ AX, AX
	CMPQ AX, R12
	JGE  tail2x512

chunk2x512:
	VMOVUPD     (SI)(AX*1), Z8
	VMOVUPD     (R13)(AX*1), Z9
	VMOVUPD     (DI)(AX*1), Z0
	VMOVUPD     (R11)(AX*1), Z10
	VMOVDDUP    Z0, Z1
	VPERMILPD   $0xff, Z0, Z2
	VMOVDDUP    Z10, Z11
	VPERMILPD   $0xff, Z10, Z12
	VFMADD231PD Z8, Z1, Z4
	VFMADD231PD Z9, Z2, Z5
	VFMADD231PD Z8, Z11, Z6
	VFMADD231PD Z9, Z12, Z7
	ADDQ $64, AX
	CMPQ AX, R12
	JLT  chunk2x512

tail2x512:
	KORTESTW K1, K1
	JZ       reduce2x512
	VMOVUPD.Z   (SI)(AX*1), K1, Z8
	VMOVUPD.Z   (R13)(AX*1), K1, Z9
	VMOVUPD.Z   (DI)(AX*1), K1, Z0
	VMOVUPD.Z   (R11)(AX*1), K1, Z10
	VMOVDDUP    Z0, Z1
	VPERMILPD   $0xff, Z0, Z2
	VMOVDDUP    Z10, Z11
	VPERMILPD   $0xff, Z10, Z12
	VFMADD231PD Z8, Z1, Z4
	VFMADD231PD Z9, Z2, Z5
	VFMADD231PD Z8, Z11, Z6
	VFMADD231PD Z9, Z12, Z7

reduce2x512:
	REDUCE512(Z4, Z5, Y4, Y5, X4, X5)
	REDUCE512(Z6, Z7, Y6, Y7, X6, X7)
	VADDPD  (DX), X4, X4
	VMOVUPD X4, (DX)
	VADDPD  (R14), X6, X6
	VMOVUPD X6, (R14)
	ADDQ $16, DX
	ADDQ $16, R14
	ADDQ R9, SI
	DECQ R8
	JNZ  row2x512

done2x512:
	VZEROUPPER
	RET

// func denseApply2AVX2(tab, in0, in1, out0, out1 []complex128)
//
// denseApply2AVX512's walk two complex lanes at a time; CX is 1 when cols
// is odd, the single complex that ends each row.
TEXT ·denseApply2AVX2(SB), NOSPLIT, $0-120
	MOVQ tab_base+0(FP), SI
	MOVQ in0_base+24(FP), DI
	MOVQ in0_len+32(FP), CX
	MOVQ in1_base+48(FP), R11
	MOVQ out0_base+72(FP), DX
	MOVQ out0_len+80(FP), R8
	MOVQ out1_base+96(FP), R14
	TESTQ CX, CX
	JZ    done2x256
	TESTQ R8, R8
	JZ    done2x256
	MOVQ CX, R9
	SHLQ $5, R9
	MOVQ CX, R10
	SHLQ $4, R10
	MOVQ CX, R12
	ANDQ $-2, R12
	SHLQ $4, R12
	ANDQ $1, CX

row2x256:
	LEAQ (SI)(R10*1), R13
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	XORQ AX, AX
	CMPQ AX, R12
	JGE  tail2x256

chunk2x256:
	VMOVUPD     (SI)(AX*1), Y8
	VMOVUPD     (R13)(AX*1), Y9
	VMOVUPD     (DI)(AX*1), Y0
	VMOVUPD     (R11)(AX*1), Y10
	VMOVDDUP    Y0, Y1
	VPERMILPD   $0xf, Y0, Y2
	VMOVDDUP    Y10, Y11
	VPERMILPD   $0xf, Y10, Y12
	VFMADD231PD Y8, Y1, Y4
	VFMADD231PD Y9, Y2, Y5
	VFMADD231PD Y8, Y11, Y6
	VFMADD231PD Y9, Y12, Y7
	ADDQ $32, AX
	CMPQ AX, R12
	JLT  chunk2x256

tail2x256:
	TESTQ CX, CX
	JZ    reduce2x256
	VMOVUPD     (SI)(AX*1), X8
	VMOVUPD     (R13)(AX*1), X9
	VMOVUPD     (DI)(AX*1), X0
	VMOVUPD     (R11)(AX*1), X10
	VMOVDDUP    X0, X1
	VPERMILPD   $0x3, X0, X2
	VMOVDDUP    X10, X11
	VPERMILPD   $0x3, X10, X12
	VMULPD      X8, X1, X1
	VFMADD231PD X9, X2, X1
	VADDPD      Y1, Y4, Y4
	VMULPD      X8, X11, X11
	VFMADD231PD X9, X12, X11
	VADDPD      Y11, Y6, Y6

reduce2x256:
	REDUCE256(Y4, Y5, X4, X5)
	REDUCE256(Y6, Y7, X6, X7)
	VADDPD  (DX), X4, X4
	VMOVUPD X4, (DX)
	VADDPD  (R14), X6, X6
	VMOVUPD X6, (R14)
	ADDQ $16, DX
	ADDQ $16, R14
	ADDQ R9, SI
	DECQ R8
	JNZ  row2x256

done2x256:
	VZEROUPPER
	RET
