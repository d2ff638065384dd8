//go:build !purego

#include "textflag.h"
#include "vexp_amd64.h"

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
// root, so t = -λr is the portable loop's t bit for bit; e^t is
// vexp_amd64.h's, t clamped at -746 first so that a huge or overflowed λr
// gives 0, as in the portable loop, and not the NaN of a reduction of
// -1e300.

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
	EXP512(A, C, D)                     \
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

// One vector of four targets against the source at R8, charge at R9; Y15 =
// -λ, Y8..Y14 scratch. e^t by EXP256; then (q·e^t)/r, the portable loop's
// last two operations, masked to +0 where r² = 0. An overflowed r²
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
	EXP256(Y9, Y10, Y11, Y12)    \
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
