//go:build !purego

#include "textflag.h"

// The vector pair loops (p2p.go states the contract, DESIGN.md "Batched
// execution" the numerics). All four walk the block in register
// groups of two vectors of targets, and for each group stream the sources,
// broadcast one at a time from the []geom.Point (24 bytes apart).
//
// pairBlock layout: n at 0, then x, y, z, acc, 64 float64 each.
#define BLK_X   8
#define BLK_Y   520
#define BLK_Z   1032
#define BLK_ACC 1544

DATA pairconst<>+0(SB)/8, $0.5
DATA pairconst<>+8(SB)/8, $0x7ff0000000000000 // +Inf
GLOBL pairconst<>(SB), RODATA|NOPTR, $16

// One vector of eight targets against the source in Z8..Z10, charge Z11.
// r² = dx² ⊕ dy² ⊕ dz²; K = r² ≠ 0 and not r² ≥ +Inf (a NaN stays in and
// propagates, as in the scalar loop); y ≈ r²^-½ to 14 bits, then twice
// y ← y + y·(0.5 − (0.5·r²·y)·y), the Newton step in the form whose last
// operation rounds once onto a small correction; acc += q·y under K.
#define PAIR512(TX, TY, TZ, ACC, A, B, C, K) \
	VSUBPD       Z8, TX, A    \
	VSUBPD       Z9, TY, B    \
	VSUBPD       Z10, TZ, C   \
	VMULPD       A, A, A      \
	VFMADD231PD  B, B, A      \
	VFMADD231PD  C, C, A      \
	VCMPPD       $4, Z15, A, K       \
	VCMPPD       $0x19, Z18, A, K, K \
	VRSQRT14PD   A, B         \
	VMULPD       Z16, A, A    \
	VMULPD       B, A, C      \
	VFNMADD213PD Z16, B, C    \
	VFMADD231PD  C, B, B      \
	VMULPD       B, A, C      \
	VFNMADD213PD Z16, B, C    \
	VFMADD231PD  C, B, B      \
	VFMADD231PD  B, Z11, K, ACC

// func laplacePairsAVX512(src []geom.Point, q []float64, blk *pairBlock)
TEXT ·laplacePairsAVX512(SB), NOSPLIT, $0-56
	MOVQ src_base+0(FP), SI
	MOVQ src_len+8(FP), CX
	MOVQ q_base+24(FP), DI
	MOVQ blk+48(FP), BX
	MOVQ (BX), DX
	ADDQ $15, DX
	SHRQ $4, DX               // groups of 16 targets
	JZ   done512
	TESTQ CX, CX
	JZ   done512
	VPXORQ       Z15, Z15, Z15
	VBROADCASTSD pairconst<>+0(SB), Z16
	VBROADCASTSD pairconst<>+8(SB), Z18

group512:
	VMOVUPD BLK_X(BX), Z0
	VMOVUPD BLK_X+64(BX), Z1
	VMOVUPD BLK_Y(BX), Z2
	VMOVUPD BLK_Y+64(BX), Z3
	VMOVUPD BLK_Z(BX), Z4
	VMOVUPD BLK_Z+64(BX), Z5
	VMOVUPD BLK_ACC(BX), Z6
	VMOVUPD BLK_ACC+64(BX), Z7
	MOVQ SI, R8
	MOVQ DI, R9
	MOVQ CX, R10

source512:
	VBROADCASTSD (R8), Z8
	VBROADCASTSD 8(R8), Z9
	VBROADCASTSD 16(R8), Z10
	VBROADCASTSD (R9), Z11
	PAIR512(Z0, Z2, Z4, Z6, Z12, Z13, Z14, K1)
	PAIR512(Z1, Z3, Z5, Z7, Z19, Z20, Z21, K2)
	ADDQ $24, R8
	ADDQ $8, R9
	DECQ R10
	JNZ  source512

	VMOVUPD Z6, BLK_ACC(BX)
	VMOVUPD Z7, BLK_ACC+64(BX)
	ADDQ $128, BX
	DECQ DX
	JNZ  group512

done512:
	VZEROUPPER
	RET

// One vector of four targets against the source in Y8..Y10, charge Y11:
// the portable loop's operations in its order — no fused multiply-add, an
// exact square root and an exact divide — so every lane is its bits. The
// skipped pair becomes an added +0: q/√0 masked to zero.
#define PAIR256(TX, TY, TZ, ACC) \
	VSUBPD  Y8, TX, Y12       \
	VSUBPD  Y9, TY, Y13       \
	VSUBPD  Y10, TZ, Y14      \
	VMULPD  Y12, Y12, Y12     \
	VMULPD  Y13, Y13, Y13     \
	VMULPD  Y14, Y14, Y14     \
	VADDPD  Y13, Y12, Y12     \
	VADDPD  Y14, Y12, Y12     \
	VCMPPD  $4, Y15, Y12, Y13 \
	VSQRTPD Y12, Y12          \
	VDIVPD  Y12, Y11, Y12     \
	VANDPD  Y13, Y12, Y12     \
	VADDPD  Y12, ACC, ACC

// func laplacePairsAVX2(src []geom.Point, q []float64, blk *pairBlock)
TEXT ·laplacePairsAVX2(SB), NOSPLIT, $0-56
	MOVQ src_base+0(FP), SI
	MOVQ src_len+8(FP), CX
	MOVQ q_base+24(FP), DI
	MOVQ blk+48(FP), BX
	MOVQ (BX), DX
	ADDQ $7, DX
	SHRQ $3, DX               // groups of 8 targets
	JZ   done256
	TESTQ CX, CX
	JZ   done256
	VXORPD Y15, Y15, Y15

group256:
	VMOVUPD BLK_X(BX), Y0
	VMOVUPD BLK_X+32(BX), Y1
	VMOVUPD BLK_Y(BX), Y2
	VMOVUPD BLK_Y+32(BX), Y3
	VMOVUPD BLK_Z(BX), Y4
	VMOVUPD BLK_Z+32(BX), Y5
	VMOVUPD BLK_ACC(BX), Y6
	VMOVUPD BLK_ACC+32(BX), Y7
	MOVQ SI, R8
	MOVQ DI, R9
	MOVQ CX, R10

source256:
	VBROADCASTSD (R8), Y8
	VBROADCASTSD 8(R8), Y9
	VBROADCASTSD 16(R8), Y10
	VBROADCASTSD (R9), Y11
	PAIR256(Y0, Y2, Y4, Y6)
	PAIR256(Y1, Y3, Y5, Y7)
	ADDQ $24, R8
	ADDQ $8, R9
	DECQ R10
	JNZ  source256

	VMOVUPD Y6, BLK_ACC(BX)
	VMOVUPD Y7, BLK_ACC+32(BX)
	ADDQ $64, BX
	DECQ DX
	JNZ  group256

done256:
	VZEROUPPER
	RET

// The vector Yukawa pair loops: q·e^{-λr}/r with the Laplace loops' block
// walk and mask (DESIGN.md "Batched execution" states the numerics). r² is
// the portable loop's, unfused and in its order, and r its exact square
// root, so t = -λr is the portable loop's t bit for bit; e^t = 2^k·e^f with
// k = round(t·log₂e), f = t − k·ln2 (Cody–Waite, by FMA) and a degree-13
// Taylor polynomial for e^f on |f| ≤ ln2/2, t clamped at -746 first so that
// a huge or overflowed λr gives 0, as in the portable loop, and not the NaN
// of a reduction of -1e300.
//
// yukconst: every constant four times over, so the AVX2 loop can take it as
// a ymm memory operand and the AVX-512 loop as a broadcast.
#define YK_CLAMP 0
#define YK_LOG2E 32
#define YK_LN2HI 64
#define YK_LN2LO 96
#define YK_MAGIC 128
#define YK_C0    160
#define YK_C1    192
#define YK_C2    224
#define YK_C3    256
#define YK_C4    288
#define YK_C5    320
#define YK_C6    352
#define YK_C7    384
#define YK_C8    416
#define YK_C9    448
#define YK_C10   480
#define YK_C11   512
#define YK_C12   544
#define YK_C13   576

#define YKCONST(off, bits) \
	DATA yukconst<>+off(SB)/8, bits    \
	DATA yukconst<>+off+8(SB)/8, bits  \
	DATA yukconst<>+off+16(SB)/8, bits \
	DATA yukconst<>+off+24(SB)/8, bits

YKCONST(YK_CLAMP, $0xc087500000000000) // -746: e^-746 rounds to 0
YKCONST(YK_LOG2E, $0x3ff71547652b82fe) // log₂e
YKCONST(YK_LN2HI, $0x3fe62e42fee00000) // ln2, high part (math.Exp's)
YKCONST(YK_LN2LO, $0x3dea39ef35793c76) // ln2, low part
YKCONST(YK_MAGIC, $0x43300000000003ff) // 2^52 + 1023: k + magic holds k + 1023 in its low bits
YKCONST(YK_C0, $0x3ff0000000000000)    // 1/n!, n = 0…13
YKCONST(YK_C1, $0x3ff0000000000000)
YKCONST(YK_C2, $0x3fe0000000000000)
YKCONST(YK_C3, $0x3fc5555555555555)
YKCONST(YK_C4, $0x3fa5555555555555)
YKCONST(YK_C5, $0x3f81111111111111)
YKCONST(YK_C6, $0x3f56c16c16c16c17)
YKCONST(YK_C7, $0x3f2a01a01a01a01a)
YKCONST(YK_C8, $0x3efa01a01a01a01a)
YKCONST(YK_C9, $0x3ec71de3a556c734)
YKCONST(YK_C10, $0x3e927e4fb7789f5c)
YKCONST(YK_C11, $0x3e5ae64567f544e4)
YKCONST(YK_C12, $0x3e21eed8eff8d898)
YKCONST(YK_C13, $0x3de6124613a86d09)
GLOBL yukconst<>(SB), RODATA|NOPTR, $608

// P = Σ f^n/n! by Horner, f in F.
#define EXPPOLY512(F, P) \
	VBROADCASTSD      yukconst<>+YK_C13(SB), P \
	VFMADD213PD.BCST  yukconst<>+YK_C12(SB), F, P \
	VFMADD213PD.BCST  yukconst<>+YK_C11(SB), F, P \
	VFMADD213PD.BCST  yukconst<>+YK_C10(SB), F, P \
	VFMADD213PD.BCST  yukconst<>+YK_C9(SB), F, P  \
	VFMADD213PD.BCST  yukconst<>+YK_C8(SB), F, P  \
	VFMADD213PD.BCST  yukconst<>+YK_C7(SB), F, P  \
	VFMADD213PD.BCST  yukconst<>+YK_C6(SB), F, P  \
	VFMADD213PD.BCST  yukconst<>+YK_C5(SB), F, P  \
	VFMADD213PD.BCST  yukconst<>+YK_C4(SB), F, P  \
	VFMADD213PD.BCST  yukconst<>+YK_C3(SB), F, P  \
	VFMADD213PD.BCST  yukconst<>+YK_C2(SB), F, P  \
	VFMADD213PD.BCST  yukconst<>+YK_C1(SB), F, P  \
	VFMADD213PD.BCST  yukconst<>+YK_C0(SB), F, P

// One vector of eight targets against the source in Z8..Z10, charge Z11;
// Z16 = -λ, Z17 = 1. K is Laplace's mask; y ≈ 1/r to 14 bits, then twice
// y ← y + y·(1 − r·y); 2^k by VSCALEFPD, which rounds once into the
// subnormals; acc += q·(e^t·y) under K. A NaN r propagates through y.
#define YUK512(TX, TY, TZ, ACC, A, B, C, D, K) \
	VSUBPD           Z8, TX, A          \
	VSUBPD           Z9, TY, B          \
	VSUBPD           Z10, TZ, C         \
	VMULPD           A, A, A            \
	VMULPD           B, B, B            \
	VMULPD           C, C, C            \
	VADDPD           B, A, A            \
	VADDPD           C, A, A            \
	VCMPPD           $4, Z15, A, K      \
	VCMPPD           $0x19, Z18, A, K, K \
	VSQRTPD          A, A               \
	VRCP14PD         A, B               \
	VMOVAPD          Z17, C             \
	VFNMADD231PD     B, A, C            \
	VFMADD231PD      C, B, B            \
	VMOVAPD          Z17, C             \
	VFNMADD231PD     B, A, C            \
	VFMADD231PD      C, B, B            \
	VMULPD           Z16, A, A          \
	VMAXPD.BCST      yukconst<>+YK_CLAMP(SB), A, A \
	VMULPD.BCST      yukconst<>+YK_LOG2E(SB), A, C \
	VRNDSCALEPD      $0, C, C           \
	VFNMADD231PD.BCST yukconst<>+YK_LN2HI(SB), C, A \
	VFNMADD231PD.BCST yukconst<>+YK_LN2LO(SB), C, A \
	EXPPOLY512(A, D)                    \
	VSCALEFPD        C, D, D            \
	VMULPD           B, D, D            \
	VFMADD231PD      D, Z11, K, ACC

// func yukawaPairsAVX512(lambda float64, src []geom.Point, q []float64, blk *pairBlock)
TEXT ·yukawaPairsAVX512(SB), NOSPLIT, $0-64
	MOVQ src_base+8(FP), SI
	MOVQ src_len+16(FP), CX
	MOVQ q_base+32(FP), DI
	MOVQ blk+56(FP), BX
	MOVQ (BX), DX
	ADDQ $15, DX
	SHRQ $4, DX               // groups of 16 targets
	JZ   ydone512
	TESTQ CX, CX
	JZ   ydone512
	VPXORQ       Z15, Z15, Z15
	VBROADCASTSD pairconst<>+8(SB), Z18
	VBROADCASTSD lambda+0(FP), Z16
	VSUBPD       Z16, Z15, Z16 // -λ
	VBROADCASTSD yukconst<>+YK_C0(SB), Z17

ygroup512:
	VMOVUPD BLK_X(BX), Z0
	VMOVUPD BLK_X+64(BX), Z1
	VMOVUPD BLK_Y(BX), Z2
	VMOVUPD BLK_Y+64(BX), Z3
	VMOVUPD BLK_Z(BX), Z4
	VMOVUPD BLK_Z+64(BX), Z5
	VMOVUPD BLK_ACC(BX), Z6
	VMOVUPD BLK_ACC+64(BX), Z7
	MOVQ SI, R8
	MOVQ DI, R9
	MOVQ CX, R10

ysource512:
	VBROADCASTSD (R8), Z8
	VBROADCASTSD 8(R8), Z9
	VBROADCASTSD 16(R8), Z10
	VBROADCASTSD (R9), Z11
	YUK512(Z0, Z2, Z4, Z6, Z12, Z13, Z14, Z19, K1)
	YUK512(Z1, Z3, Z5, Z7, Z20, Z21, Z22, Z23, K2)
	ADDQ $24, R8
	ADDQ $8, R9
	DECQ R10
	JNZ  ysource512

	VMOVUPD Z6, BLK_ACC(BX)
	VMOVUPD Z7, BLK_ACC+64(BX)
	ADDQ $128, BX
	DECQ DX
	JNZ  ygroup512

ydone512:
	VZEROUPPER
	RET

// P = Σ f^n/n! by Horner, f in F; the coefficients as ymm memory operands.
#define EXPPOLY256(F, P) \
	VMOVUPD      yukconst<>+YK_C13(SB), P \
	VFMADD213PD  yukconst<>+YK_C12(SB), F, P \
	VFMADD213PD  yukconst<>+YK_C11(SB), F, P \
	VFMADD213PD  yukconst<>+YK_C10(SB), F, P \
	VFMADD213PD  yukconst<>+YK_C9(SB), F, P  \
	VFMADD213PD  yukconst<>+YK_C8(SB), F, P  \
	VFMADD213PD  yukconst<>+YK_C7(SB), F, P  \
	VFMADD213PD  yukconst<>+YK_C6(SB), F, P  \
	VFMADD213PD  yukconst<>+YK_C5(SB), F, P  \
	VFMADD213PD  yukconst<>+YK_C4(SB), F, P  \
	VFMADD213PD  yukconst<>+YK_C3(SB), F, P  \
	VFMADD213PD  yukconst<>+YK_C2(SB), F, P  \
	VFMADD213PD  yukconst<>+YK_C1(SB), F, P  \
	VFMADD213PD  yukconst<>+YK_C0(SB), F, P

// One vector of four targets against the source at R8, charge at R9; Y15 =
// -λ, Y8..Y14 scratch. 2^k is two factors 2^⌊k/2⌋·2^⌈k/2⌉ (the halving
// multiplies by 1/2!), each an integer placed in an exponent field by the
// magic add and a shift (k ≥ -1077 halves to normal powers of two), so
// the product rounds once into the subnormals; then (q·e^t)/r, the portable
// loop's last two operations, masked to +0 where r² = 0. An overflowed r²
// divides to 0 and a NaN one stays NaN, as in the portable loop.
#define YUK256(TX, TY, TZ, ACC) \
	VBROADCASTSD (R8), Y8        \
	VBROADCASTSD 8(R8), Y9       \
	VBROADCASTSD 16(R8), Y10     \
	VSUBPD       Y8, TX, Y8      \
	VSUBPD       Y9, TY, Y9      \
	VSUBPD       Y10, TZ, Y10    \
	VMULPD       Y8, Y8, Y8      \
	VMULPD       Y9, Y9, Y9      \
	VMULPD       Y10, Y10, Y10   \
	VADDPD       Y9, Y8, Y8      \
	VADDPD       Y10, Y8, Y8     \
	VXORPD       Y14, Y14, Y14   \
	VCMPPD       $4, Y14, Y8, Y14 \
	VSQRTPD      Y8, Y8          \
	VMULPD       Y15, Y8, Y9     \
	VMAXPD       yukconst<>+YK_CLAMP(SB), Y9, Y9 \
	VMULPD       yukconst<>+YK_LOG2E(SB), Y9, Y10 \
	VROUNDPD     $0, Y10, Y10    \
	VFNMADD231PD yukconst<>+YK_LN2HI(SB), Y10, Y9 \
	VFNMADD231PD yukconst<>+YK_LN2LO(SB), Y10, Y9 \
	EXPPOLY256(Y9, Y11)          \
	VMULPD       yukconst<>+YK_C2(SB), Y10, Y12 \
	VROUNDPD     $1, Y12, Y12    \
	VSUBPD       Y12, Y10, Y10   \
	VADDPD       yukconst<>+YK_MAGIC(SB), Y12, Y12 \
	VADDPD       yukconst<>+YK_MAGIC(SB), Y10, Y10 \
	VPSLLQ       $52, Y12, Y12   \
	VPSLLQ       $52, Y10, Y10   \
	VMULPD       Y12, Y11, Y11   \
	VMULPD       Y10, Y11, Y11   \
	VBROADCASTSD (R9), Y12       \
	VMULPD       Y12, Y11, Y11   \
	VDIVPD       Y8, Y11, Y11    \
	VANDPD       Y14, Y11, Y11   \
	VADDPD       Y11, ACC, ACC

// func yukawaPairsAVX2(lambda float64, src []geom.Point, q []float64, blk *pairBlock)
TEXT ·yukawaPairsAVX2(SB), NOSPLIT, $0-64
	MOVQ src_base+8(FP), SI
	MOVQ src_len+16(FP), CX
	MOVQ q_base+32(FP), DI
	MOVQ blk+56(FP), BX
	MOVQ (BX), DX
	ADDQ $7, DX
	SHRQ $3, DX               // groups of 8 targets
	JZ   ydone256
	TESTQ CX, CX
	JZ   ydone256
	VBROADCASTSD lambda+0(FP), Y15
	VXORPD       Y14, Y14, Y14
	VSUBPD       Y15, Y14, Y15 // -λ

ygroup256:
	VMOVUPD BLK_X(BX), Y0
	VMOVUPD BLK_X+32(BX), Y1
	VMOVUPD BLK_Y(BX), Y2
	VMOVUPD BLK_Y+32(BX), Y3
	VMOVUPD BLK_Z(BX), Y4
	VMOVUPD BLK_Z+32(BX), Y5
	VMOVUPD BLK_ACC(BX), Y6
	VMOVUPD BLK_ACC+32(BX), Y7
	MOVQ SI, R8
	MOVQ DI, R9
	MOVQ CX, R10

ysource256:
	YUK256(Y0, Y2, Y4, Y6)
	YUK256(Y1, Y3, Y5, Y7)
	ADDQ $24, R8
	ADDQ $8, R9
	DECQ R10
	JNZ  ysource256

	VMOVUPD Y6, BLK_ACC(BX)
	VMOVUPD Y7, BLK_ACC+32(BX)
	ADDQ $64, BX
	DECQ DX
	JNZ  ygroup256

ydone256:
	VZEROUPPER
	RET

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

// func xgetbv() (eax uint32): the low half of XCR0.
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET
