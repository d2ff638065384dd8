//go:build !purego

#include "textflag.h"
#include "vexp_amd64.h"

// The point block's passes (point.go states the contract and the numerics).
// Lane i of a row is point i; a packed slot of Y (and of the S->M sums) is
// its Re lanes followed by its Im lanes, a row of rad its lanes. Every
// recurrence step is the portable evaluator's operations, unfused and in
// its order (sphharm.YnmPackedXYZ), with the step's coefficients broadcast:
// a lane's Y_n^m is the portable loop's bits.
//
// pointBlock layout: x, y, z, q, pot, xl, inv, i0 (eight float64 each), then
// the slice headers of rad, ylm and acc.
#define PB_X   0
#define PB_Y   64
#define PB_Z   128
#define PB_Q   192
#define PB_POT 256
#define PB_XL  320
#define PB_INV 384
#define PB_I0  448
#define PB_RAD 512
#define PB_YLM 536
#define PB_ACC 560

DATA ptconst<>+0(SB)/8, $0x3fe0000000000000  // 0.5
DATA ptconst<>+8(SB)/8, $0x3ff0000000000000  // 1
DATA ptconst<>+16(SB)/8, $0x4000000000000000 // 2
DATA ptconst<>+24(SB)/8, $0x4008000000000000 // 3
DATA ptconst<>+32(SB)/8, $0x73d658e3ab795204 // 1e250: millerDown's rescale bound
DATA ptconst<>+40(SB)/8, $0x400921fb54442d18 // π
GLOBL ptconst<>(SB), RODATA|NOPTR, $48

// ---- AVX-512: eight lanes, a slot 128 bytes, a rad row 64 ----

// Y_n^m for m < n-1 from the step at (R8) and rows n-1, n-2 at (R10), (R11):
// Re into Z7, Im into Z9, both stored at (R9).
#define REC512 \
	VMULPD.BCST  (R8), Z2, Z5    \
	VBROADCASTSD 8(R8), Z6       \
	VMULPD       (R10), Z5, Z7   \
	VMULPD       (R11), Z6, Z8   \
	VSUBPD       Z8, Z7, Z7      \
	VMULPD       64(R10), Z5, Z9 \
	VMULPD       64(R11), Z6, Z10 \
	VSUBPD       Z10, Z9, Z9     \
	VMOVUPD      Z7, (R9)        \
	VMOVUPD      Z9, 64(R9)

// The row's last two entries from Y_{n-1}^{n-1} at (R10): m = n-1 into Z7,
// Z9 stored at (R9), m = n into Z11, Z12 stored at 128(R9).
#define DIAG512 \
	VMOVUPD      (R10), Z11       \
	VMOVUPD      64(R10), Z12     \
	VMULPD.BCST  (R8), Z2, Z5     \
	VMULPD       Z11, Z5, Z7      \
	VMULPD       Z12, Z5, Z9      \
	VMULPD       Z11, Z0, Z13     \
	VMULPD       Z12, Z1, Z14     \
	VSUBPD       Z14, Z13, Z13    \
	VMULPD       Z12, Z0, Z14     \
	VMULPD       Z11, Z1, Z15     \
	VADDPD       Z15, Z14, Z14    \
	VMULPD.BCST  16(R8), Z13, Z11 \
	VMULPD.BCST  16(R8), Z14, Z12 \
	VMOVUPD      Z7, (R9)         \
	VMOVUPD      Z9, 64(R9)       \
	VMOVUPD      Z11, 128(R9)     \
	VMOVUPD      Z12, 192(R9)

// S->M sums of slot OFF(R12) += f·Re Y, -= f·Im Y, f in Z4.
#define ACC512(RE, IM, OFF) \
	VMULPD  Z4, RE, Z16        \
	VADDPD  OFF(R12), Z16, Z16 \
	VMOVUPD Z16, OFF(R12)      \
	VMULPD  Z4, IM, Z17        \
	VMOVUPD OFF+64(R12), Z18   \
	VSUBPD  Z17, Z18, Z18      \
	VMOVUPD Z18, OFF+64(R12)

// f = (q·c_n)·rad_n of row n: cn at (R14), rad at (R13).
#define ROWF512 \
	VMULPD.BCST (R14), Z3, Z4 \
	VMULPD      (R13), Z4, Z4

// func pointProjectAVX512(p int, steps, cn []float64, pb *pointBlock)
TEXT ·pointProjectAVX512(SB), NOSPLIT, $0-64
	MOVQ    p+0(FP), CX
	MOVQ    steps_base+8(FP), R8
	MOVQ    cn_base+32(FP), R14
	MOVQ    pb+56(FP), BX
	MOVQ    PB_RAD(BX), R13
	MOVQ    PB_YLM(BX), R9
	MOVQ    PB_ACC(BX), R12
	VMOVUPD PB_X(BX), Z0
	VMOVUPD PB_Y(BX), Z1
	VMOVUPD PB_Z(BX), Z2
	VMOVUPD PB_Q(BX), Z3
	VPXORQ  Z31, Z31, Z31

	// n = 0: Y_0^0 = K_0^0, kept in Z30.
	ROWF512
	VBROADCASTSD (R8), Z30
	VMOVUPD      Z30, (R9)
	VMOVUPD      Z31, 64(R9)
	ACC512(Z30, Z31, 0)
	TESTQ        CX, CX
	JZ           pdone512

	// n = 1: Y_1^0 = (a z)K, Y_1^1 = ((a x)K, (a y)K).
	ADDQ         $8, R14
	ADDQ         $64, R13
	ROWF512
	VMULPD.BCST  16(R8), Z2, Z7
	VMULPD       Z30, Z7, Z7
	VMULPD.BCST  32(R8), Z0, Z11
	VMULPD       Z30, Z11, Z11
	VMULPD.BCST  32(R8), Z1, Z12
	VMULPD       Z30, Z12, Z12
	VMOVUPD      Z7, 128(R9)
	VMOVUPD      Z31, 192(R9)
	VMOVUPD      Z11, 256(R9)
	VMOVUPD      Z12, 320(R9)
	ACC512(Z7, Z31, 128)
	ACC512(Z11, Z12, 256)
	CMPQ         CX, $1
	JEQ          pdone512

	// Rows n = 2…p (SI): R8 the step and R9 the slot written, R10 and R11
	// the entries of rows n-1 and n-2 read, R12 the slot's sums, R13 and
	// R14 row n of rad and cn.
	MOVQ R9, R11
	LEAQ 128(R9), R10
	ADDQ $384, R9
	ADDQ $384, R12
	ADDQ $48, R8
	ADDQ $64, R13
	ADDQ $8, R14
	MOVQ $2, SI

prow512:
	ROWF512
	LEAQ -1(SI), DX

pent512:
	REC512
	ACC512(Z7, Z9, 0)
	ADDQ $16, R8
	ADDQ $128, R9
	ADDQ $128, R10
	ADDQ $128, R11
	ADDQ $128, R12
	DECQ DX
	JNZ  pent512

	DIAG512
	ACC512(Z7, Z9, 0)
	ACC512(Z11, Z12, 128)
	ADDQ $32, R8
	ADDQ $256, R9
	ADDQ $128, R10
	ADDQ $256, R12
	ADDQ $64, R13
	ADDQ $8, R14
	INCQ SI
	CMPQ SI, CX
	JLE  prow512

pdone512:
	VZEROUPPER
	RET

// sn = (½·Re c)·Re Y for m = 0, c at OFF(R12); Z21 = ½.
#define SN0512(RE, OFF) \
	VBROADCASTSD OFF(R12), Z16 \
	VMULPD       Z21, Z16, Z16 \
	VMULPD       RE, Z16, Z20

// sn += Re c·Re Y − Im c·Im Y, c at OFF(R12).
#define DOT512(RE, IM, OFF) \
	VMULPD.BCST OFF(R12), RE, Z16   \
	VMULPD.BCST OFF+8(R12), IM, Z17 \
	VSUBPD      Z17, Z16, Z16       \
	VADDPD      Z16, Z20, Z20

// pot += (2·sn)·rad_n, rad at (R13).
#define ENDROW512 \
	VADDPD Z20, Z20, Z16 \
	VMULPD (R13), Z16, Z16 \
	VADDPD Z16, Z3, Z3

// func pointEvalAVX512(p int, steps []float64, coeff []complex128, pb *pointBlock)
TEXT ·pointEvalAVX512(SB), NOSPLIT, $0-64
	MOVQ         p+0(FP), CX
	MOVQ         steps_base+8(FP), R8
	MOVQ         coeff_base+32(FP), R12
	MOVQ         pb+56(FP), BX
	MOVQ         PB_RAD(BX), R13
	MOVQ         PB_YLM(BX), R9
	VMOVUPD      PB_X(BX), Z0
	VMOVUPD      PB_Y(BX), Z1
	VMOVUPD      PB_Z(BX), Z2
	VPXORQ       Z3, Z3, Z3
	VPXORQ       Z31, Z31, Z31
	VBROADCASTSD ptconst<>+0(SB), Z21

	// n = 0
	VBROADCASTSD (R8), Z30
	VMOVUPD      Z30, (R9)
	VMOVUPD      Z31, 64(R9)
	SN0512(Z30, 0)
	ENDROW512
	TESTQ        CX, CX
	JZ           edone512

	// n = 1
	ADDQ         $64, R13
	VMULPD.BCST  16(R8), Z2, Z7
	VMULPD       Z30, Z7, Z7
	VMULPD.BCST  32(R8), Z0, Z11
	VMULPD       Z30, Z11, Z11
	VMULPD.BCST  32(R8), Z1, Z12
	VMULPD       Z30, Z12, Z12
	VMOVUPD      Z7, 128(R9)
	VMOVUPD      Z31, 192(R9)
	VMOVUPD      Z11, 256(R9)
	VMOVUPD      Z12, 320(R9)
	SN0512(Z7, 16)
	DOT512(Z11, Z12, 32)
	ENDROW512
	CMPQ         CX, $1
	JEQ          edone512

	// Rows n = 2…p as in pointProjectAVX512, R12 the coefficient of the
	// slot written.
	MOVQ R9, R11
	LEAQ 128(R9), R10
	ADDQ $384, R9
	ADDQ $48, R12
	ADDQ $48, R8
	ADDQ $64, R13
	MOVQ $2, SI

erow512:
	REC512
	SN0512(Z7, 0)
	ADDQ  $16, R8
	ADDQ  $128, R9
	ADDQ  $128, R10
	ADDQ  $128, R11
	ADDQ  $16, R12
	LEAQ  -2(SI), DX
	TESTQ DX, DX
	JZ    ediag512

eent512:
	REC512
	DOT512(Z7, Z9, 0)
	ADDQ $16, R8
	ADDQ $128, R9
	ADDQ $128, R10
	ADDQ $128, R11
	ADDQ $16, R12
	DECQ DX
	JNZ  eent512

ediag512:
	DIAG512
	DOT512(Z7, Z9, 0)
	DOT512(Z11, Z12, 16)
	ENDROW512
	ADDQ $32, R8
	ADDQ $256, R9
	ADDQ $128, R10
	ADDQ $32, R12
	ADDQ $64, R13
	INCQ SI
	CMPQ SI, CX
	JLE  erow512

edone512:
	VMOVUPD Z3, PB_POT(BX)
	VZEROUPPER
	RET

// One Miller step: f_{n-1} = f_{n+1} + ((2n+1)·inv)·f_n with Z0 = inv,
// Z1 = f_{n+1}, Z2 = f_n, Z3 = 2n+1, Z4 = 2; Z5 the running maximum. The
// multiply-add is fused: the recurrence is a dependent chain of start
// steps, and the pass already differs from the scalar one in its start.
#define MILLER512 \
	VMULPD      Z0, Z3, Z6 \
	VFMADD213PD Z1, Z2, Z6 \
	VMOVAPD Z2, Z1     \
	VMOVAPD Z6, Z2     \
	VMAXPD  Z2, Z5, Z5 \
	VSUBPD  Z4, Z3, Z3

// func pointMillerAVX512(p, start int, scale []float64, pb *pointBlock) (over uint8)
TEXT ·pointMillerAVX512(SB), NOSPLIT, $0-49
	MOVQ         p+0(FP), CX
	MOVQ         start+8(FP), DX
	MOVQ         scale_base+16(FP), R8
	MOVQ         pb+40(FP), BX
	MOVQ         PB_RAD(BX), R13
	VMOVUPD      PB_INV(BX), Z0
	VPXORQ       Z1, Z1, Z1
	VBROADCASTSD ptconst<>+8(SB), Z2
	VMOVAPD      Z2, Z5
	LEAQ         1(DX)(DX*1), AX
	VCVTSI2SDQ   AX, X3, X3
	VBROADCASTSD X3, Z3
	VBROADCASTSD ptconst<>+16(SB), Z4
	LEAQ         1(CX), SI

mup512: // n = start … p+2: nothing stored
	CMPQ DX, SI
	JLE  mrows512
	MILLER512
	DECQ DX
	JMP  mup512

mrows512: // n = p+1 … 1: f_{n-1} to row n-1
	MOVQ CX, AX
	SHLQ $6, AX
	ADDQ R13, AX

mstore512:
	MILLER512
	VMOVUPD Z2, (AX)
	SUBQ    $64, AX
	DECQ    DX
	JNZ     mstore512

	VBROADCASTSD ptconst<>+32(SB), Z6
	VCMPPD       $0x1e, Z6, Z5, K1
	KMOVW        K1, AX
	MOVB         AX, over+48(FP)

	// row n = (f_n · i_0/f_0) · scale[n]
	VMOVUPD PB_I0(BX), Z6
	VDIVPD  (R13), Z6, Z6
	LEAQ    1(CX), DX

mscale512:
	VMULPD      (R13), Z6, Z7
	VMULPD.BCST (R8), Z7, Z7
	VMOVUPD     Z7, (R13)
	ADDQ        $64, R13
	ADDQ        $8, R8
	DECQ        DX
	JNZ         mscale512
	VZEROUPPER
	RET

// func pointBesselKAVX512(p int, scale []float64, pb *pointBlock)
TEXT ·pointBesselKAVX512(SB), NOSPLIT, $0-40
	MOVQ         p+0(FP), CX
	MOVQ         scale_base+8(FP), R8
	MOVQ         pb+32(FP), BX
	MOVQ         PB_RAD(BX), R13
	VMOVUPD      PB_XL(BX), Z0
	VBROADCASTSD ptconst<>+8(SB), Z1
	VDIVPD       Z0, Z1, Z1 // inv = 1/x
	VPXORQ       Z2, Z2, Z2
	VSUBPD       Z0, Z2, Z2 // -x
	EXP512(Z2, Z3, Z4)
	VMULPD.BCST  ptconst<>+40(SB), Z4, Z4
	VMULPD.BCST  ptconst<>+0(SB), Z4, Z4 // e = e^{-x}·π/2
	VMULPD       Z1, Z4, Z5              // k_0 = e·inv
	VMULPD.BCST  (R8), Z5, Z7
	VMOVUPD      Z7, (R13)
	TESTQ        CX, CX
	JZ           kdone512
	VMULPD       Z1, Z1, Z6
	VADDPD       Z6, Z1, Z6
	VMULPD       Z6, Z4, Z6 // k_1 = e·(inv + inv·inv)
	VMULPD.BCST  8(R8), Z6, Z7
	VMOVUPD      Z7, 64(R13)
	CMPQ         CX, $1
	JEQ          kdone512
	VBROADCASTSD ptconst<>+24(SB), Z8 // 2n-1 at n = 2
	VBROADCASTSD ptconst<>+16(SB), Z9
	ADDQ         $128, R13
	ADDQ         $16, R8
	LEAQ         -1(CX), DX

krow512: // k_n = k_{n-2} + ((2n-1)·inv)·k_{n-1}
	VMULPD      Z1, Z8, Z7
	VMULPD      Z6, Z7, Z7
	VADDPD      Z7, Z5, Z7
	VMOVAPD     Z6, Z5
	VMOVAPD     Z7, Z6
	VMULPD.BCST (R8), Z7, Z7
	VMOVUPD     Z7, (R13)
	VADDPD      Z9, Z8, Z8
	ADDQ        $64, R13
	ADDQ        $8, R8
	DECQ        DX
	JNZ         krow512

kdone512:
	VZEROUPPER
	RET

// ---- AVX2: four lanes, a slot 64 bytes, a rad row 32 ----

#define REC256 \
	VBROADCASTSD (R8), Y5        \
	VMULPD       Y2, Y5, Y5      \
	VBROADCASTSD 8(R8), Y6       \
	VMULPD       (R10), Y5, Y7   \
	VMULPD       (R11), Y6, Y8   \
	VSUBPD       Y8, Y7, Y7      \
	VMULPD       32(R10), Y5, Y9 \
	VMULPD       32(R11), Y6, Y10 \
	VSUBPD       Y10, Y9, Y9     \
	VMOVUPD      Y7, (R9)        \
	VMOVUPD      Y9, 32(R9)

#define DIAG256 \
	VMOVUPD      (R10), Y11   \
	VMOVUPD      32(R10), Y12 \
	VBROADCASTSD (R8), Y5     \
	VMULPD       Y2, Y5, Y5   \
	VMULPD       Y11, Y5, Y7  \
	VMULPD       Y12, Y5, Y9  \
	VMULPD       Y11, Y0, Y13 \
	VMULPD       Y12, Y1, Y14 \
	VSUBPD       Y14, Y13, Y13 \
	VMULPD       Y12, Y0, Y14 \
	VMULPD       Y11, Y1, Y15 \
	VADDPD       Y15, Y14, Y14 \
	VBROADCASTSD 16(R8), Y5   \
	VMULPD       Y5, Y13, Y11 \
	VMULPD       Y5, Y14, Y12 \
	VMOVUPD      Y7, (R9)     \
	VMOVUPD      Y9, 32(R9)   \
	VMOVUPD      Y11, 64(R9)  \
	VMOVUPD      Y12, 96(R9)

#define ACC256(RE, IM, OFF) \
	VMULPD  Y4, RE, Y13        \
	VADDPD  OFF(R12), Y13, Y13 \
	VMOVUPD Y13, OFF(R12)      \
	VMULPD  Y4, IM, Y14        \
	VMOVUPD OFF+32(R12), Y15   \
	VSUBPD  Y14, Y15, Y15      \
	VMOVUPD Y15, OFF+32(R12)

#define ROWF256 \
	VBROADCASTSD (R14), Y4 \
	VMULPD       Y4, Y3, Y4 \
	VMULPD       (R13), Y4, Y4

// func pointProjectAVX2(p int, steps, cn []float64, pb *pointBlock)
TEXT ·pointProjectAVX2(SB), NOSPLIT, $0-64
	MOVQ    p+0(FP), CX
	MOVQ    steps_base+8(FP), R8
	MOVQ    cn_base+32(FP), R14
	MOVQ    pb+56(FP), BX
	MOVQ    PB_RAD(BX), R13
	MOVQ    PB_YLM(BX), R9
	MOVQ    PB_ACC(BX), R12
	VMOVUPD PB_X(BX), Y0
	VMOVUPD PB_Y(BX), Y1
	VMOVUPD PB_Z(BX), Y2
	VMOVUPD PB_Q(BX), Y3

	// n = 0: K_0^0 in Y8, zero in Y10.
	ROWF256
	VXORPD       Y10, Y10, Y10
	VBROADCASTSD (R8), Y8
	VMOVUPD      Y8, (R9)
	VMOVUPD      Y10, 32(R9)
	ACC256(Y8, Y10, 0)
	TESTQ        CX, CX
	JZ           pdone256

	// n = 1
	ADDQ         $8, R14
	ADDQ         $32, R13
	ROWF256
	VBROADCASTSD 16(R8), Y7
	VMULPD       Y2, Y7, Y7
	VMULPD       Y8, Y7, Y7
	VBROADCASTSD 32(R8), Y5
	VMULPD       Y0, Y5, Y11
	VMULPD       Y8, Y11, Y11
	VMULPD       Y1, Y5, Y12
	VMULPD       Y8, Y12, Y12
	VMOVUPD      Y7, 64(R9)
	VMOVUPD      Y10, 96(R9)
	VMOVUPD      Y11, 128(R9)
	VMOVUPD      Y12, 160(R9)
	ACC256(Y7, Y10, 64)
	ACC256(Y11, Y12, 128)
	CMPQ         CX, $1
	JEQ          pdone256

	MOVQ R9, R11
	LEAQ 64(R9), R10
	ADDQ $192, R9
	ADDQ $192, R12
	ADDQ $48, R8
	ADDQ $32, R13
	ADDQ $8, R14
	MOVQ $2, SI

prow256:
	ROWF256
	LEAQ -1(SI), DX

pent256:
	REC256
	ACC256(Y7, Y9, 0)
	ADDQ $16, R8
	ADDQ $64, R9
	ADDQ $64, R10
	ADDQ $64, R11
	ADDQ $64, R12
	DECQ DX
	JNZ  pent256

	DIAG256
	ACC256(Y7, Y9, 0)
	ACC256(Y11, Y12, 64)
	ADDQ $32, R8
	ADDQ $128, R9
	ADDQ $64, R10
	ADDQ $128, R12
	ADDQ $32, R13
	ADDQ $8, R14
	INCQ SI
	CMPQ SI, CX
	JLE  prow256

pdone256:
	VZEROUPPER
	RET

// sn in Y4, pot in Y3.
#define SN0256(RE, OFF) \
	VBROADCASTSD OFF(R12), Y13          \
	VBROADCASTSD ptconst<>+0(SB), Y14   \
	VMULPD       Y14, Y13, Y13          \
	VMULPD       RE, Y13, Y4

#define DOT256(RE, IM, OFF) \
	VBROADCASTSD OFF(R12), Y13   \
	VMULPD       RE, Y13, Y13    \
	VBROADCASTSD OFF+8(R12), Y14 \
	VMULPD       IM, Y14, Y14    \
	VSUBPD       Y14, Y13, Y13   \
	VADDPD       Y13, Y4, Y4

#define ENDROW256 \
	VADDPD Y4, Y4, Y13     \
	VMULPD (R13), Y13, Y13 \
	VADDPD Y13, Y3, Y3

// func pointEvalAVX2(p int, steps []float64, coeff []complex128, pb *pointBlock)
TEXT ·pointEvalAVX2(SB), NOSPLIT, $0-64
	MOVQ    p+0(FP), CX
	MOVQ    steps_base+8(FP), R8
	MOVQ    coeff_base+32(FP), R12
	MOVQ    pb+56(FP), BX
	MOVQ    PB_RAD(BX), R13
	MOVQ    PB_YLM(BX), R9
	VMOVUPD PB_X(BX), Y0
	VMOVUPD PB_Y(BX), Y1
	VMOVUPD PB_Z(BX), Y2
	VXORPD  Y3, Y3, Y3

	// n = 0
	VXORPD       Y10, Y10, Y10
	VBROADCASTSD (R8), Y8
	VMOVUPD      Y8, (R9)
	VMOVUPD      Y10, 32(R9)
	SN0256(Y8, 0)
	ENDROW256
	TESTQ        CX, CX
	JZ           edone256

	// n = 1
	ADDQ         $32, R13
	VBROADCASTSD 16(R8), Y7
	VMULPD       Y2, Y7, Y7
	VMULPD       Y8, Y7, Y7
	VBROADCASTSD 32(R8), Y5
	VMULPD       Y0, Y5, Y11
	VMULPD       Y8, Y11, Y11
	VMULPD       Y1, Y5, Y12
	VMULPD       Y8, Y12, Y12
	VMOVUPD      Y7, 64(R9)
	VMOVUPD      Y10, 96(R9)
	VMOVUPD      Y11, 128(R9)
	VMOVUPD      Y12, 160(R9)
	SN0256(Y7, 16)
	DOT256(Y11, Y12, 32)
	ENDROW256
	CMPQ         CX, $1
	JEQ          edone256

	MOVQ R9, R11
	LEAQ 64(R9), R10
	ADDQ $192, R9
	ADDQ $48, R12
	ADDQ $48, R8
	ADDQ $32, R13
	MOVQ $2, SI

erow256:
	REC256
	SN0256(Y7, 0)
	ADDQ  $16, R8
	ADDQ  $64, R9
	ADDQ  $64, R10
	ADDQ  $64, R11
	ADDQ  $16, R12
	LEAQ  -2(SI), DX
	TESTQ DX, DX
	JZ    ediag256

eent256:
	REC256
	DOT256(Y7, Y9, 0)
	ADDQ $16, R8
	ADDQ $64, R9
	ADDQ $64, R10
	ADDQ $64, R11
	ADDQ $16, R12
	DECQ DX
	JNZ  eent256

ediag256:
	DIAG256
	DOT256(Y7, Y9, 0)
	DOT256(Y11, Y12, 16)
	ENDROW256
	ADDQ $32, R8
	ADDQ $128, R9
	ADDQ $64, R10
	ADDQ $32, R12
	ADDQ $32, R13
	INCQ SI
	CMPQ SI, CX
	JLE  erow256

edone256:
	VMOVUPD Y3, PB_POT(BX)
	VZEROUPPER
	RET

#define MILLER256 \
	VMULPD      Y0, Y3, Y6 \
	VFMADD213PD Y1, Y2, Y6 \
	VMOVAPD Y2, Y1     \
	VMOVAPD Y6, Y2     \
	VMAXPD  Y2, Y5, Y5 \
	VSUBPD  Y4, Y3, Y3

// func pointMillerAVX2(p, start int, scale []float64, pb *pointBlock) (over uint8)
TEXT ·pointMillerAVX2(SB), NOSPLIT, $0-49
	MOVQ         p+0(FP), CX
	MOVQ         start+8(FP), DX
	MOVQ         scale_base+16(FP), R8
	MOVQ         pb+40(FP), BX
	MOVQ         PB_RAD(BX), R13
	VMOVUPD      PB_INV(BX), Y0
	VXORPD       Y1, Y1, Y1
	VBROADCASTSD ptconst<>+8(SB), Y2
	VMOVAPD      Y2, Y5
	LEAQ         1(DX)(DX*1), AX
	VCVTSI2SDQ   AX, X3, X3
	VBROADCASTSD X3, Y3
	VBROADCASTSD ptconst<>+16(SB), Y4
	LEAQ         1(CX), SI

mup256:
	CMPQ DX, SI
	JLE  mrows256
	MILLER256
	DECQ DX
	JMP  mup256

mrows256:
	MOVQ CX, AX
	SHLQ $5, AX
	ADDQ R13, AX

mstore256:
	MILLER256
	VMOVUPD Y2, (AX)
	SUBQ    $32, AX
	DECQ    DX
	JNZ     mstore256

	VBROADCASTSD ptconst<>+32(SB), Y6
	VCMPPD       $0x1e, Y6, Y5, Y7
	VMOVMSKPD    Y7, AX
	MOVB         AX, over+48(FP)

	VMOVUPD PB_I0(BX), Y6
	VDIVPD  (R13), Y6, Y6
	LEAQ    1(CX), DX

mscale256:
	VMULPD       (R13), Y6, Y7
	VBROADCASTSD (R8), Y8
	VMULPD       Y8, Y7, Y7
	VMOVUPD      Y7, (R13)
	ADDQ         $32, R13
	ADDQ         $8, R8
	DECQ         DX
	JNZ          mscale256
	VZEROUPPER
	RET

// func pointBesselKAVX2(p int, scale []float64, pb *pointBlock)
TEXT ·pointBesselKAVX2(SB), NOSPLIT, $0-40
	MOVQ         p+0(FP), CX
	MOVQ         scale_base+8(FP), R8
	MOVQ         pb+32(FP), BX
	MOVQ         PB_RAD(BX), R13
	VMOVUPD      PB_XL(BX), Y0
	VBROADCASTSD ptconst<>+8(SB), Y1
	VDIVPD       Y0, Y1, Y1
	VXORPD       Y2, Y2, Y2
	VSUBPD       Y0, Y2, Y2
	EXP256(Y2, Y3, Y4, Y10)
	VBROADCASTSD ptconst<>+40(SB), Y10
	VMULPD       Y10, Y4, Y4
	VBROADCASTSD ptconst<>+0(SB), Y10
	VMULPD       Y10, Y4, Y4
	VMULPD       Y1, Y4, Y5
	VBROADCASTSD (R8), Y10
	VMULPD       Y10, Y5, Y7
	VMOVUPD      Y7, (R13)
	TESTQ        CX, CX
	JZ           kdone256
	VMULPD       Y1, Y1, Y6
	VADDPD       Y6, Y1, Y6
	VMULPD       Y6, Y4, Y6
	VBROADCASTSD 8(R8), Y10
	VMULPD       Y10, Y6, Y7
	VMOVUPD      Y7, 32(R13)
	CMPQ         CX, $1
	JEQ          kdone256
	VBROADCASTSD ptconst<>+24(SB), Y8
	VBROADCASTSD ptconst<>+16(SB), Y9
	ADDQ         $64, R13
	ADDQ         $16, R8
	LEAQ         -1(CX), DX

krow256:
	VMULPD       Y1, Y8, Y7
	VMULPD       Y6, Y7, Y7
	VADDPD       Y7, Y5, Y7
	VMOVAPD      Y6, Y5
	VMOVAPD      Y7, Y6
	VBROADCASTSD (R8), Y10
	VMULPD       Y10, Y7, Y7
	VMOVUPD      Y7, (R13)
	VADDPD       Y9, Y8, Y8
	ADDQ         $32, R13
	ADDQ         $8, R8
	DECQ         DX
	JNZ          krow256

kdone256:
	VZEROUPPER
	RET
