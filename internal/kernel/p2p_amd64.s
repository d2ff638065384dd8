//go:build !purego

#include "textflag.h"
#include "vexp_amd64.h"

// The vector pair loops (p2p.go states the contract, DESIGN.md "Batched
// execution" the numerics). All eight walk the block in register groups of
// two vectors of targets, and for each group stream the sources, broadcast
// one at a time: the float64 loops' from the []geom.Point (24 bytes apart),
// the float32 loops' from the narrowed []src32 (16 bytes apart). The four
// float64 loops accumulate into acc. The four float32 loops — both kernels
// at p ≤ pF32 — sum one sub-chunk of at most 256 sources into part, in
// float32, on the block's float32 image (coordinates relative to the
// block's origin, never absolute ones); a pair whose narrowed r² is below
// r2Min is skipped if its float64 coordinates equal the source's, and is
// otherwise a hazard: the loop returns 1 and the driver recomputes the
// block and sub-chunk with the float64 loop.
//
// pairBlock layout: n at 0, then x, y, z, acc, 256 float64 each, then x32,
// y32, z32, part, 256 float32 each (TestPairBlockLayout).
#define BLK_X    8
#define BLK_Y    2056
#define BLK_Z    4104
#define BLK_ACC  6152
#define BLK_X32  8200
#define BLK_Y32  9224
#define BLK_Z32  10248
#define BLK_PART 11272

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

// The float32 pair loops: q·G(r) on the block's float32 image (p2p.go:
// narrow, narrowSources), into a partial sum per target that the driver
// widens. Each vector of 32-bit constants is stored whole for the AVX2
// loops' memory operands: 3, then r2Min = 2⁻¹⁶, the least narrowed r²
// summed (p2p.go).
DATA pair32c<>+0(SB)/8, $0x4040000040400000
DATA pair32c<>+8(SB)/8, $0x4040000040400000
DATA pair32c<>+16(SB)/8, $0x4040000040400000
DATA pair32c<>+24(SB)/8, $0x4040000040400000
DATA pair32c<>+32(SB)/8, $0x3780000037800000
DATA pair32c<>+40(SB)/8, $0x3780000037800000
DATA pair32c<>+48(SB)/8, $0x3780000037800000
DATA pair32c<>+56(SB)/8, $0x3780000037800000
GLOBL pair32c<>(SB), RODATA|NOPTR, $64

// One vector of sixteen targets against the source in Z8..Z10, half its
// charge in Z11; Z16 = 3, Z17 = r2Min. R2x512 leaves r² in A and K = r² ≥
// r2Min (r² is finite: the driver narrowed only finite coordinates near the
// block); W32x512 then takes y ≈ r²^-½ to 14 bits and one Newton step in the
// form w = y·(3 − (r²·y)·y) ≈ 2/r, which the halved charge undoes, into B.
#define R2x512(TX, TY, TZ, A, B, C, K) \
	VSUBPS       Z8, TX, A    \
	VSUBPS       Z9, TY, B    \
	VSUBPS       Z10, TZ, C   \
	VMULPS       A, A, A      \
	VFMADD231PS  B, B, A      \
	VFMADD231PS  C, C, A      \
	VCMPPS       $0x1d, Z17, A, K

#define W32x512(A, B, C) \
	VRSQRT14PS   A, B         \
	VMULPS       B, A, C      \
	VFNMADD213PS Z16, B, C    \
	VMULPS       C, B, B

// Laplace: acc += (q/2)·w under K. Twelve vector operations (VRSQRT14PS is
// two) per sixteen pairs on the two ports that run 512-bit arithmetic.
#define PAIR32x512(TX, TY, TZ, ACC, A, B, C, K) \
	R2x512(TX, TY, TZ, A, B, C, K) \
	W32x512(A, B, C)               \
	VFMADD231PS  B, Z11, K, ACC

// Eight float64 lanes at OFF from the group's float64 coordinates (R12)
// equal to the source in Z24..Z26, as the mask K.
#define EQ64x512(OFF, K) \
	VCMPPD $0, BLK_X+OFF(R12), Z24, K    \
	VCMPPD $0, BLK_Y+OFF(R12), Z25, K, K \
	VCMPPD $0, BLK_Z+OFF(R12), Z26, K, K

// Lanes of the 32 in K1 and K2 below r2Min are a hazard unless their
// float64 coordinates equal the source's (at R9): K1 and K2 gain the equal
// lanes, and the loop goes on at NEXT if that covers all 32; otherwise the
// code after the macro reports the hazard.
#define HAZARD512(NEXT) \
	VBROADCASTSD (R9), Z24    \
	VBROADCASTSD 8(R9), Z25   \
	VBROADCASTSD 16(R9), Z26  \
	EQ64x512(0, K3)           \
	EQ64x512(64, K4)          \
	KUNPCKBW K3, K4, K3       \
	KORW     K1, K3, K1       \
	EQ64x512(128, K4)         \
	EQ64x512(192, K5)         \
	KUNPCKBW K4, K5, K4       \
	KORW     K2, K4, K2       \
	KANDW    K1, K2, K3       \
	KORTESTW K3, K3           \
	JCS      NEXT

// func laplacePairs32AVX512(ns []src32, src []geom.Point, blk *pairBlock) int
TEXT ·laplacePairs32AVX512(SB), NOSPLIT, $0-64
	MOVQ ns_base+0(FP), SI
	MOVQ ns_len+8(FP), CX
	MOVQ src_base+24(FP), DI
	MOVQ blk+48(FP), BX
	MOVQ $0, ret+56(FP)
	MOVQ (BX), DX
	ADDQ $31, DX
	SHRQ $5, DX               // groups of 32 targets
	JZ   fdone512
	TESTQ CX, CX
	JZ   fdone512
	MOVQ BX, R12              // the group's float64 coordinates, 256 bytes a group
	VBROADCASTSS pair32c<>+0(SB), Z16
	VBROADCASTSS pair32c<>+32(SB), Z17

fgroup512:
	VMOVUPS BLK_X32(BX), Z0
	VMOVUPS BLK_X32+64(BX), Z1
	VMOVUPS BLK_Y32(BX), Z2
	VMOVUPS BLK_Y32+64(BX), Z3
	VMOVUPS BLK_Z32(BX), Z4
	VMOVUPS BLK_Z32+64(BX), Z5
	VPXORD  Z6, Z6, Z6
	VPXORD  Z7, Z7, Z7
	MOVQ SI, R8
	MOVQ DI, R9
	MOVQ CX, R10

fsource512:
	VBROADCASTSS (R8), Z8
	VBROADCASTSS 4(R8), Z9
	VBROADCASTSS 8(R8), Z10
	VBROADCASTSS 12(R8), Z11
	PAIR32x512(Z0, Z2, Z4, Z6, Z12, Z13, Z14, K1)
	PAIR32x512(Z1, Z3, Z5, Z7, Z19, Z20, Z21, K2)
	KANDW    K1, K2, K3
	KORTESTW K3, K3
	JCC      fclose512        // a lane below r2Min
fnext512:
	ADDQ $16, R8
	ADDQ $24, R9
	DECQ R10
	JNZ  fsource512

	VMOVUPS Z6, BLK_PART(BX)
	VMOVUPS Z7, BLK_PART+64(BX)
	ADDQ $128, BX
	ADDQ $256, R12
	DECQ DX
	JNZ  fgroup512

fdone512:
	VZEROUPPER
	RET

fclose512:
	HAZARD512(fnext512)
	MOVQ $1, ret+56(FP)
	VZEROUPPER
	RET

// One vector of eight targets against the source in Y8..Y10, half its
// charge in Y11; Y12..Y15 scratch, the constants from memory. PAIR32x512's
// operations from VRSQRTPS's 12 bits, K as the vector mask Y15 (a lane
// below r2Min, where y may be ∞ or NaN, is masked to +0); the mask's sign
// bits are left in AX.
#define PAIR32x256(TX, TY, TZ, ACC) \
	VSUBPS       Y8, TX, Y12        \
	VSUBPS       Y9, TY, Y13        \
	VSUBPS       Y10, TZ, Y14       \
	VMULPS       Y12, Y12, Y12      \
	VFMADD231PS  Y13, Y13, Y12      \
	VFMADD231PS  Y14, Y14, Y12      \
	VCMPPS       $0x1d, pair32c<>+32(SB), Y12, Y15 \
	VRSQRTPS     Y12, Y13           \
	VMULPS       Y13, Y12, Y14      \
	VFNMADD213PS pair32c<>+0(SB), Y13, Y14 \
	VMULPS       Y14, Y13, Y13      \
	VANDPS       Y15, Y13, Y13      \
	VFMADD231PS  Y13, Y11, ACC      \
	VMOVMSKPS    Y15, AX

// Four float64 lanes at OFF from the group's float64 coordinates (R12)
// equal to the source in Y12..Y14, ORed into R11 at bit SHIFT.
#define EQ64x256(OFF, SHIFT) \
	VCMPPD    $0, BLK_X+OFF(R12), Y12, Y8  \
	VCMPPD    $0, BLK_Y+OFF(R12), Y13, Y9  \
	VCMPPD    $0, BLK_Z+OFF(R12), Y14, Y10 \
	VANDPD    Y9, Y8, Y8                   \
	VANDPD    Y10, Y8, Y8                  \
	VMOVMSKPD Y8, AX                       \
	SHLL      $SHIFT, AX                   \
	ORL       AX, R11

// As HAZARD512: the equal lanes join the 16 lanes' range mask in R11.
#define HAZARD256(NEXT) \
	VBROADCASTSD (R9), Y12   \
	VBROADCASTSD 8(R9), Y13  \
	VBROADCASTSD 16(R9), Y14 \
	EQ64x256(0, 0)           \
	EQ64x256(32, 4)          \
	EQ64x256(64, 8)          \
	EQ64x256(96, 12)         \
	CMPL R11, $0xffff        \
	JEQ  NEXT

// func laplacePairs32AVX2(ns []src32, src []geom.Point, blk *pairBlock) int
TEXT ·laplacePairs32AVX2(SB), NOSPLIT, $0-64
	MOVQ ns_base+0(FP), SI
	MOVQ ns_len+8(FP), CX
	MOVQ src_base+24(FP), DI
	MOVQ blk+48(FP), BX
	MOVQ $0, ret+56(FP)
	MOVQ (BX), DX
	ADDQ $15, DX
	SHRQ $4, DX               // groups of 16 targets
	JZ   fdone256
	TESTQ CX, CX
	JZ   fdone256
	MOVQ BX, R12              // the group's float64 coordinates, 128 bytes a group

fgroup256:
	VMOVUPS BLK_X32(BX), Y0
	VMOVUPS BLK_X32+32(BX), Y1
	VMOVUPS BLK_Y32(BX), Y2
	VMOVUPS BLK_Y32+32(BX), Y3
	VMOVUPS BLK_Z32(BX), Y4
	VMOVUPS BLK_Z32+32(BX), Y5
	VXORPS  Y6, Y6, Y6
	VXORPS  Y7, Y7, Y7
	MOVQ SI, R8
	MOVQ DI, R9
	MOVQ CX, R10

fsource256:
	VBROADCASTSS (R8), Y8
	VBROADCASTSS 4(R8), Y9
	VBROADCASTSS 8(R8), Y10
	VBROADCASTSS 12(R8), Y11
	PAIR32x256(Y0, Y2, Y4, Y6)
	MOVL AX, R11
	PAIR32x256(Y1, Y3, Y5, Y7)
	SHLL $8, AX
	ORL  AX, R11              // the 16 lanes' range mask
	CMPL R11, $0xffff
	JNE  fclose256
fnext256:
	ADDQ $16, R8
	ADDQ $24, R9
	DECQ R10
	JNZ  fsource256

	VMOVUPS Y6, BLK_PART(BX)
	VMOVUPS Y7, BLK_PART+32(BX)
	ADDQ $64, BX
	ADDQ $128, R12
	DECQ DX
	JNZ  fgroup256

fdone256:
	VZEROUPPER
	RET

fclose256:
	HAZARD256(fnext256)
	MOVQ $1, ret+56(FP)
	VZEROUPPER
	RET

// The float32 Yukawa pair loops: q·e^{−λr}/r, Laplace's loops with
// t = −(λ′/2)·r²·w = −λ′r formed from their w ≈ 2/r (λ′, λ in the block's
// image, is an argument), e^t = 2^k·e^f with k = round(t·log₂e) and
// f = t − k·ln2 (Cody–Waite, by FMA), and e^f on |f| ≤ ln2/2 by a degree-6
// polynomial fitted for least relative error with float32 coefficients
// (0.3·2⁻²⁴ in exact arithmetic). Every constant eight times over, as
// pair32c.
#define Y32_NHALF 0
#define Y32_TMIN  32
#define Y32_CLAMP 64
#define Y32_LOG2E 96
#define Y32_LN2HI 128
#define Y32_LN2LO 160
#define Y32_MAGIC 192
#define Y32_C0    224
#define Y32_C1    256
#define Y32_C2    288
#define Y32_C3    320
#define Y32_C4    352
#define Y32_C5    384
#define Y32_C6    416

#define Y32CONST(off, bits) \
	DATA yuk32c<>+off(SB)/8, bits    \
	DATA yuk32c<>+off+8(SB)/8, bits  \
	DATA yuk32c<>+off+16(SB)/8, bits \
	DATA yuk32c<>+off+24(SB)/8, bits

Y32CONST(Y32_NHALF, $0xbf000000bf000000) // −½: −λ′/2 from λ′
Y32CONST(Y32_TMIN, $0xc2adcccdc2adcccd)  // −86.9: above it e^t is a normal float32 (AVX2)
Y32CONST(Y32_CLAMP, $0xc2dc0000c2dc0000) // −110: e^−110 scales to 0 (AVX-512)
Y32CONST(Y32_LOG2E, $0x3fb8aa3b3fb8aa3b) // log₂e
Y32CONST(Y32_LN2HI, $0x3f3172183f317218) // ln2 rounded to float32
Y32CONST(Y32_LN2LO, $0xb102e308b102e308) // ln2 − ln2hi
Y32CONST(Y32_MAGIC, $0x4b4000004b400000) // 1.5·2²³: k + magic holds k in its low bits
Y32CONST(Y32_C0, $0x3f8000003f800000)    // 1
Y32CONST(Y32_C1, $0x3f8000003f800000)    // 1
Y32CONST(Y32_C2, $0x3efffffe3efffffe)    // 0.49999994
Y32CONST(Y32_C3, $0x3e2aaa0c3e2aaa0c)    // 0.1666643
Y32CONST(Y32_C4, $0x3d2aac123d2aac12)    // 0.041668005
Y32CONST(Y32_C5, $0x3c0933ec3c0933ec)    // 0.008374196
Y32CONST(Y32_C6, $0x3ab573703ab57370)    // 0.0013843607
GLOBL yuk32c<>(SB), RODATA|NOPTR, $448

// P = Σ c_n f^n by Horner, f in F, c6 in Z30, the rest broadcast.
#define EXPPOLY32x512(F, P) \
	VMOVAPS          Z30, P \
	VFMADD213PS.BCST yuk32c<>+Y32_C5(SB), F, P \
	VFMADD213PS.BCST yuk32c<>+Y32_C4(SB), F, P \
	VFMADD213PS.BCST yuk32c<>+Y32_C3(SB), F, P \
	VFMADD213PS.BCST yuk32c<>+Y32_C2(SB), F, P \
	VFMADD213PS.BCST yuk32c<>+Y32_C1(SB), F, P \
	VFMADD213PS.BCST yuk32c<>+Y32_C0(SB), F, P

// One vector of sixteen targets against the source in Z8..Z10, half its
// charge in Z11; Z15 = −110, Z18 = −λ′/2, Z27..Z29 = log₂e, ln2hi, ln2lo,
// Z30 = c6. Laplace's r², mask and w, r² raised to r2Min first, so that a
// lane outside K — a coincident pair's r² = 0 among them — stays finite
// (with the ∞ of the rsqrt of 0 and the NaNs after it, a leaf against
// itself ran at twice the cost of two distinct leaves; the AVX2 loop, with
// no VRNDSCALEPS or VSCALEFPS, showed no such cost). t clamped at −110,
// so that a huge λ′r gives 0 and
// not the NaN of a reduction of −1e10; 2^k by VSCALEFPS, which rounds once
// into the subnormals; acc += (q/2)·(e^t·w) under K. 29 vector operations
// per sixteen pairs.
#define YUK32x512(TX, TY, TZ, ACC, A, B, C, D, K) \
	R2x512(TX, TY, TZ, A, B, C, K) \
	VMAXPS       Z17, A, A    \
	W32x512(A, B, C)          \
	VMULPS       Z18, A, A    \
	VMULPS       B, A, A      \
	VMAXPS       Z15, A, A    \
	VMULPS       Z27, A, C    \
	VRNDSCALEPS  $0, C, C     \
	VFNMADD231PS Z28, C, A    \
	VFNMADD231PS Z29, C, A    \
	EXPPOLY32x512(A, D)       \
	VSCALEFPS    C, D, D      \
	VMULPS       B, D, D      \
	VFMADD231PS  D, Z11, K, ACC

// func yukawaPairs32AVX512(lam float32, ns []src32, src []geom.Point, blk *pairBlock) int
TEXT ·yukawaPairs32AVX512(SB), NOSPLIT, $0-72
	MOVQ ns_base+8(FP), SI
	MOVQ ns_len+16(FP), CX
	MOVQ src_base+32(FP), DI
	MOVQ blk+56(FP), BX
	MOVQ $0, ret+64(FP)
	MOVQ (BX), DX
	ADDQ $31, DX
	SHRQ $5, DX               // groups of 32 targets
	JZ   ydone32x512
	TESTQ CX, CX
	JZ   ydone32x512
	MOVQ BX, R12              // the group's float64 coordinates, 256 bytes a group
	VBROADCASTSS pair32c<>+0(SB), Z16
	VBROADCASTSS pair32c<>+32(SB), Z17
	VBROADCASTSS lam+0(FP), Z18
	VMULPS.BCST  yuk32c<>+Y32_NHALF(SB), Z18, Z18
	VBROADCASTSS yuk32c<>+Y32_CLAMP(SB), Z15
	VBROADCASTSS yuk32c<>+Y32_LOG2E(SB), Z27
	VBROADCASTSS yuk32c<>+Y32_LN2HI(SB), Z28
	VBROADCASTSS yuk32c<>+Y32_LN2LO(SB), Z29
	VBROADCASTSS yuk32c<>+Y32_C6(SB), Z30

ygroup32x512:
	VMOVUPS BLK_X32(BX), Z0
	VMOVUPS BLK_X32+64(BX), Z1
	VMOVUPS BLK_Y32(BX), Z2
	VMOVUPS BLK_Y32+64(BX), Z3
	VMOVUPS BLK_Z32(BX), Z4
	VMOVUPS BLK_Z32+64(BX), Z5
	VPXORD  Z6, Z6, Z6
	VPXORD  Z7, Z7, Z7
	MOVQ SI, R8
	MOVQ DI, R9
	MOVQ CX, R10

ysource32x512:
	VBROADCASTSS (R8), Z8
	VBROADCASTSS 4(R8), Z9
	VBROADCASTSS 8(R8), Z10
	VBROADCASTSS 12(R8), Z11
	YUK32x512(Z0, Z2, Z4, Z6, Z12, Z13, Z14, Z19, K1)
	YUK32x512(Z1, Z3, Z5, Z7, Z20, Z21, Z22, Z23, K2)
	KANDW    K1, K2, K3
	KORTESTW K3, K3
	JCC      yclose32x512     // a lane below r2Min
ynext32x512:
	ADDQ $16, R8
	ADDQ $24, R9
	DECQ R10
	JNZ  ysource32x512

	VMOVUPS Z6, BLK_PART(BX)
	VMOVUPS Z7, BLK_PART+64(BX)
	ADDQ $128, BX
	ADDQ $256, R12
	DECQ DX
	JNZ  ygroup32x512

ydone32x512:
	VZEROUPPER
	RET

yclose32x512:
	HAZARD512(ynext32x512)
	MOVQ $1, ret+64(FP)
	VZEROUPPER
	RET

// One vector of eight targets against the source at R8; Y15 = −λ′/2, Y8..Y14
// scratch, the other constants from memory. PAIR32x256's w and r² mask
// (its sign bits left in AX, for the hazard check); e^t from the
// polynomial with k added to its exponent field — right where k ≥ −125,
// i.e. t > −86.9, and t at or below that (NaN too) is masked to 0 with the
// lanes below r2Min; then acc += (q/2)·(e^t·w). The source is broadcast
// here, not once for both vectors, to free the registers.
#define YUK32x256(TX, TY, TZ, ACC) \
	VBROADCASTSS (R8), Y8              \
	VBROADCASTSS 4(R8), Y9             \
	VBROADCASTSS 8(R8), Y10            \
	VSUBPS       Y8, TX, Y8            \
	VSUBPS       Y9, TY, Y9            \
	VSUBPS       Y10, TZ, Y10          \
	VMULPS       Y8, Y8, Y8            \
	VFMADD231PS  Y9, Y9, Y8            \
	VFMADD231PS  Y10, Y10, Y8          \
	VCMPPS       $0x1d, pair32c<>+32(SB), Y8, Y14 \
	VMOVMSKPS    Y14, AX               \
	VRSQRTPS     Y8, Y9                \
	VMULPS       Y9, Y8, Y10           \
	VFNMADD213PS pair32c<>+0(SB), Y9, Y10 \
	VMULPS       Y10, Y9, Y9           \
	VMULPS       Y15, Y8, Y8           \
	VMULPS       Y9, Y8, Y8            \
	VCMPPS       $0x1e, yuk32c<>+Y32_TMIN(SB), Y8, Y10 \
	VANDPS       Y10, Y14, Y14         \
	VMOVUPS      yuk32c<>+Y32_MAGIC(SB), Y11 \
	VFMADD231PS  yuk32c<>+Y32_LOG2E(SB), Y8, Y11 \
	VSUBPS       yuk32c<>+Y32_MAGIC(SB), Y11, Y12 \
	VFNMADD231PS yuk32c<>+Y32_LN2HI(SB), Y12, Y8 \
	VFNMADD231PS yuk32c<>+Y32_LN2LO(SB), Y12, Y8 \
	VMOVUPS      yuk32c<>+Y32_C6(SB), Y12 \
	VFMADD213PS  yuk32c<>+Y32_C5(SB), Y8, Y12 \
	VFMADD213PS  yuk32c<>+Y32_C4(SB), Y8, Y12 \
	VFMADD213PS  yuk32c<>+Y32_C3(SB), Y8, Y12 \
	VFMADD213PS  yuk32c<>+Y32_C2(SB), Y8, Y12 \
	VFMADD213PS  yuk32c<>+Y32_C1(SB), Y8, Y12 \
	VFMADD213PS  yuk32c<>+Y32_C0(SB), Y8, Y12 \
	VPSLLD       $23, Y11, Y11         \
	VPADDD       Y11, Y12, Y12         \
	VMULPS       Y9, Y12, Y12          \
	VANDPS       Y14, Y12, Y12         \
	VBROADCASTSS 12(R8), Y13           \
	VFMADD231PS  Y12, Y13, ACC

// func yukawaPairs32AVX2(lam float32, ns []src32, src []geom.Point, blk *pairBlock) int
TEXT ·yukawaPairs32AVX2(SB), NOSPLIT, $0-72
	MOVQ ns_base+8(FP), SI
	MOVQ ns_len+16(FP), CX
	MOVQ src_base+32(FP), DI
	MOVQ blk+56(FP), BX
	MOVQ $0, ret+64(FP)
	MOVQ (BX), DX
	ADDQ $15, DX
	SHRQ $4, DX               // groups of 16 targets
	JZ   ydone32x256
	TESTQ CX, CX
	JZ   ydone32x256
	MOVQ BX, R12              // the group's float64 coordinates, 128 bytes a group
	VBROADCASTSS lam+0(FP), Y15
	VMULPS       yuk32c<>+Y32_NHALF(SB), Y15, Y15

ygroup32x256:
	VMOVUPS BLK_X32(BX), Y0
	VMOVUPS BLK_X32+32(BX), Y1
	VMOVUPS BLK_Y32(BX), Y2
	VMOVUPS BLK_Y32+32(BX), Y3
	VMOVUPS BLK_Z32(BX), Y4
	VMOVUPS BLK_Z32+32(BX), Y5
	VXORPS  Y6, Y6, Y6
	VXORPS  Y7, Y7, Y7
	MOVQ SI, R8
	MOVQ DI, R9
	MOVQ CX, R10

ysource32x256:
	YUK32x256(Y0, Y2, Y4, Y6)
	MOVL AX, R11
	YUK32x256(Y1, Y3, Y5, Y7)
	SHLL $8, AX
	ORL  AX, R11              // the 16 lanes' range mask
	CMPL R11, $0xffff
	JNE  yclose32x256
ynext32x256:
	ADDQ $16, R8
	ADDQ $24, R9
	DECQ R10
	JNZ  ysource32x256

	VMOVUPS Y6, BLK_PART(BX)
	VMOVUPS Y7, BLK_PART+32(BX)
	ADDQ $64, BX
	ADDQ $128, R12
	DECQ DX
	JNZ  ygroup32x256

ydone32x256:
	VZEROUPPER
	RET

yclose32x256:
	HAZARD256(ynext32x256)
	MOVQ $1, ret+64(FP)
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
