// Code generated by asmgen from asmgen/point.go (go generate); DO NOT EDIT.

//go:build !purego

#include "textflag.h"

// pointBlock layout: x, y, z, q, pot, xl, inv, i0 (eight float64 each),
// then the slice headers of rad, ylm and acc.
#define PB_X 0
#define PB_Y 64
#define PB_Z 128
#define PB_Q 192
#define PB_POT 256
#define PB_XL 320
#define PB_INV 384
#define PB_I0 448
#define PB_RAD 512
#define PB_YLM 536
#define PB_ACC 560

#define PT_HALF 0
#define PT_ONE 8
#define PT_TWO 16
#define PT_THREE 24
#define PT_BIG 32
#define PT_PI 40
DATA ptconst<>+0(SB)/8, $0x3fe0000000000000
DATA ptconst<>+8(SB)/8, $0x3ff0000000000000
DATA ptconst<>+16(SB)/8, $0x4000000000000000
DATA ptconst<>+24(SB)/8, $0x4008000000000000
DATA ptconst<>+32(SB)/8, $0x73d658e3ab795204
DATA ptconst<>+40(SB)/8, $0x400921fb54442d18
GLOBL ptconst<>(SB), RODATA|NOPTR, $48

#define YK_CLAMP 0
#define YK_LOG2E 32
#define YK_LN2HI 64
#define YK_LN2LO 96
#define YK_MAGIC 128
#define YK_C0 160
#define YK_C1 192
#define YK_C2 224
#define YK_C3 256
#define YK_C4 288
#define YK_C5 320
#define YK_C6 352
#define YK_C7 384
#define YK_C8 416
#define YK_C9 448
#define YK_C10 480
#define YK_C11 512
#define YK_C12 544
#define YK_C13 576
DATA yukconst<>+0(SB)/8, $0xc087500000000000
DATA yukconst<>+8(SB)/8, $0xc087500000000000
DATA yukconst<>+16(SB)/8, $0xc087500000000000
DATA yukconst<>+24(SB)/8, $0xc087500000000000
DATA yukconst<>+32(SB)/8, $0x3ff71547652b82fe
DATA yukconst<>+40(SB)/8, $0x3ff71547652b82fe
DATA yukconst<>+48(SB)/8, $0x3ff71547652b82fe
DATA yukconst<>+56(SB)/8, $0x3ff71547652b82fe
DATA yukconst<>+64(SB)/8, $0x3fe62e42fee00000
DATA yukconst<>+72(SB)/8, $0x3fe62e42fee00000
DATA yukconst<>+80(SB)/8, $0x3fe62e42fee00000
DATA yukconst<>+88(SB)/8, $0x3fe62e42fee00000
DATA yukconst<>+96(SB)/8, $0x3dea39ef35793c76
DATA yukconst<>+104(SB)/8, $0x3dea39ef35793c76
DATA yukconst<>+112(SB)/8, $0x3dea39ef35793c76
DATA yukconst<>+120(SB)/8, $0x3dea39ef35793c76
DATA yukconst<>+128(SB)/8, $0x43300000000003ff
DATA yukconst<>+136(SB)/8, $0x43300000000003ff
DATA yukconst<>+144(SB)/8, $0x43300000000003ff
DATA yukconst<>+152(SB)/8, $0x43300000000003ff
DATA yukconst<>+160(SB)/8, $0x3ff0000000000000
DATA yukconst<>+168(SB)/8, $0x3ff0000000000000
DATA yukconst<>+176(SB)/8, $0x3ff0000000000000
DATA yukconst<>+184(SB)/8, $0x3ff0000000000000
DATA yukconst<>+192(SB)/8, $0x3ff0000000000000
DATA yukconst<>+200(SB)/8, $0x3ff0000000000000
DATA yukconst<>+208(SB)/8, $0x3ff0000000000000
DATA yukconst<>+216(SB)/8, $0x3ff0000000000000
DATA yukconst<>+224(SB)/8, $0x3fe0000000000000
DATA yukconst<>+232(SB)/8, $0x3fe0000000000000
DATA yukconst<>+240(SB)/8, $0x3fe0000000000000
DATA yukconst<>+248(SB)/8, $0x3fe0000000000000
DATA yukconst<>+256(SB)/8, $0x3fc5555555555555
DATA yukconst<>+264(SB)/8, $0x3fc5555555555555
DATA yukconst<>+272(SB)/8, $0x3fc5555555555555
DATA yukconst<>+280(SB)/8, $0x3fc5555555555555
DATA yukconst<>+288(SB)/8, $0x3fa5555555555555
DATA yukconst<>+296(SB)/8, $0x3fa5555555555555
DATA yukconst<>+304(SB)/8, $0x3fa5555555555555
DATA yukconst<>+312(SB)/8, $0x3fa5555555555555
DATA yukconst<>+320(SB)/8, $0x3f81111111111111
DATA yukconst<>+328(SB)/8, $0x3f81111111111111
DATA yukconst<>+336(SB)/8, $0x3f81111111111111
DATA yukconst<>+344(SB)/8, $0x3f81111111111111
DATA yukconst<>+352(SB)/8, $0x3f56c16c16c16c17
DATA yukconst<>+360(SB)/8, $0x3f56c16c16c16c17
DATA yukconst<>+368(SB)/8, $0x3f56c16c16c16c17
DATA yukconst<>+376(SB)/8, $0x3f56c16c16c16c17
DATA yukconst<>+384(SB)/8, $0x3f2a01a01a01a01a
DATA yukconst<>+392(SB)/8, $0x3f2a01a01a01a01a
DATA yukconst<>+400(SB)/8, $0x3f2a01a01a01a01a
DATA yukconst<>+408(SB)/8, $0x3f2a01a01a01a01a
DATA yukconst<>+416(SB)/8, $0x3efa01a01a01a01a
DATA yukconst<>+424(SB)/8, $0x3efa01a01a01a01a
DATA yukconst<>+432(SB)/8, $0x3efa01a01a01a01a
DATA yukconst<>+440(SB)/8, $0x3efa01a01a01a01a
DATA yukconst<>+448(SB)/8, $0x3ec71de3a556c734
DATA yukconst<>+456(SB)/8, $0x3ec71de3a556c734
DATA yukconst<>+464(SB)/8, $0x3ec71de3a556c734
DATA yukconst<>+472(SB)/8, $0x3ec71de3a556c734
DATA yukconst<>+480(SB)/8, $0x3e927e4fb7789f5c
DATA yukconst<>+488(SB)/8, $0x3e927e4fb7789f5c
DATA yukconst<>+496(SB)/8, $0x3e927e4fb7789f5c
DATA yukconst<>+504(SB)/8, $0x3e927e4fb7789f5c
DATA yukconst<>+512(SB)/8, $0x3e5ae64567f544e4
DATA yukconst<>+520(SB)/8, $0x3e5ae64567f544e4
DATA yukconst<>+528(SB)/8, $0x3e5ae64567f544e4
DATA yukconst<>+536(SB)/8, $0x3e5ae64567f544e4
DATA yukconst<>+544(SB)/8, $0x3e21eed8eff8d898
DATA yukconst<>+552(SB)/8, $0x3e21eed8eff8d898
DATA yukconst<>+560(SB)/8, $0x3e21eed8eff8d898
DATA yukconst<>+568(SB)/8, $0x3e21eed8eff8d898
DATA yukconst<>+576(SB)/8, $0x3de6124613a86d09
DATA yukconst<>+584(SB)/8, $0x3de6124613a86d09
DATA yukconst<>+592(SB)/8, $0x3de6124613a86d09
DATA yukconst<>+600(SB)/8, $0x3de6124613a86d09
GLOBL yukconst<>(SB), RODATA|NOPTR, $608


// func pointProjectAVX512(p int, steps, cn []float64, pb *pointBlock)
TEXT ·pointProjectAVX512(SB), NOSPLIT, $0-64
	MOVQ         p+0(FP), CX
	MOVQ         steps_base+8(FP), R8
	MOVQ         cn_base+32(FP), R14
	MOVQ         pb+56(FP), BX
	MOVQ         PB_RAD(BX), R13
	MOVQ         PB_YLM(BX), R9
	MOVQ         PB_ACC(BX), R12
	VMOVUPD      PB_X(BX), Z0
	VMOVUPD      PB_Y(BX), Z1
	VMOVUPD      PB_Z(BX), Z2
	VMOVUPD      PB_Q(BX), Z3
	VPXORQ       Z31, Z31, Z31
	VMULPD.BCST  (R14), Z3, Z4
	VMULPD       (R13), Z4, Z4
	VBROADCASTSD (R8), Z30
	VMOVUPD      Z30, (R9)
	VMOVUPD      Z31, 64(R9)
	VMULPD       Z4, Z30, Z16
	VADDPD       0(R12), Z16, Z16
	VMOVUPD      Z16, 0(R12)
	VMULPD       Z4, Z31, Z17
	VMOVUPD      0+64(R12), Z18
	VSUBPD       Z17, Z18, Z18
	VMOVUPD      Z18, 0+64(R12)
	TESTQ        CX, CX
	JZ           done
	ADDQ         $8, R14
	ADDQ         $64, R13
	VMULPD.BCST  (R14), Z3, Z4
	VMULPD       (R13), Z4, Z4
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
	VMULPD       Z4, Z7, Z16
	VADDPD       128(R12), Z16, Z16
	VMOVUPD      Z16, 128(R12)
	VMULPD       Z4, Z31, Z17
	VMOVUPD      128+64(R12), Z18
	VSUBPD       Z17, Z18, Z18
	VMOVUPD      Z18, 128+64(R12)
	VMULPD       Z4, Z11, Z16
	VADDPD       256(R12), Z16, Z16
	VMOVUPD      Z16, 256(R12)
	VMULPD       Z4, Z12, Z17
	VMOVUPD      256+64(R12), Z18
	VSUBPD       Z17, Z18, Z18
	VMOVUPD      Z18, 256+64(R12)
	CMPQ         CX, $1
	JEQ          done
	MOVQ         R9, R11
	LEAQ         128(R9), R10
	ADDQ         $384, R9
	ADDQ         $384, R12
	ADDQ         $48, R8
	ADDQ         $64, R13
	ADDQ         $8, R14
	MOVQ         $2, SI

row:
	VMULPD.BCST  (R14), Z3, Z4
	VMULPD       (R13), Z4, Z4
	LEAQ         -1(SI), DX

entry:
	VMULPD.BCST  (R8), Z2, Z5
	VBROADCASTSD 8(R8), Z6
	VMULPD       (R10), Z5, Z7
	VMULPD       (R11), Z6, Z8
	VSUBPD       Z8, Z7, Z7
	VMULPD       64(R10), Z5, Z9
	VMULPD       64(R11), Z6, Z10
	VSUBPD       Z10, Z9, Z9
	VMOVUPD      Z7, (R9)
	VMOVUPD      Z9, 64(R9)
	VMULPD       Z4, Z7, Z16
	VADDPD       0(R12), Z16, Z16
	VMOVUPD      Z16, 0(R12)
	VMULPD       Z4, Z9, Z17
	VMOVUPD      0+64(R12), Z18
	VSUBPD       Z17, Z18, Z18
	VMOVUPD      Z18, 0+64(R12)
	ADDQ         $16, R8
	ADDQ         $128, R9
	ADDQ         $128, R10
	ADDQ         $128, R11
	ADDQ         $128, R12
	DECQ         DX
	JNZ          entry
	VMOVUPD      (R10), Z11
	VMOVUPD      64(R10), Z12
	VMULPD.BCST  (R8), Z2, Z5
	VMULPD       Z11, Z5, Z7
	VMULPD       Z12, Z5, Z9
	VMULPD       Z11, Z0, Z13
	VMULPD       Z12, Z1, Z14
	VSUBPD       Z14, Z13, Z13
	VMULPD       Z12, Z0, Z14
	VMULPD       Z11, Z1, Z15
	VADDPD       Z15, Z14, Z14
	VMULPD.BCST  16(R8), Z13, Z11
	VMULPD.BCST  16(R8), Z14, Z12
	VMOVUPD      Z7, (R9)
	VMOVUPD      Z9, 64(R9)
	VMOVUPD      Z11, 128(R9)
	VMOVUPD      Z12, 192(R9)
	VMULPD       Z4, Z7, Z16
	VADDPD       0(R12), Z16, Z16
	VMOVUPD      Z16, 0(R12)
	VMULPD       Z4, Z9, Z17
	VMOVUPD      0+64(R12), Z18
	VSUBPD       Z17, Z18, Z18
	VMOVUPD      Z18, 0+64(R12)
	VMULPD       Z4, Z11, Z16
	VADDPD       128(R12), Z16, Z16
	VMOVUPD      Z16, 128(R12)
	VMULPD       Z4, Z12, Z17
	VMOVUPD      128+64(R12), Z18
	VSUBPD       Z17, Z18, Z18
	VMOVUPD      Z18, 128+64(R12)
	ADDQ         $32, R8
	ADDQ         $256, R9
	ADDQ         $128, R10
	ADDQ         $256, R12
	ADDQ         $64, R13
	ADDQ         $8, R14
	INCQ         SI
	CMPQ         SI, CX
	JLE          row

done:
	VZEROUPPER
	RET

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
	VBROADCASTSD ptconst<>+PT_HALF(SB), Z21
	VBROADCASTSD (R8), Z30
	VMOVUPD      Z30, (R9)
	VMOVUPD      Z31, 64(R9)
	VBROADCASTSD 0(R12), Z16
	VMULPD       Z21, Z16, Z16
	VMULPD       Z30, Z16, Z20
	VADDPD       Z20, Z20, Z16
	VMULPD       (R13), Z16, Z16
	VADDPD       Z16, Z3, Z3
	TESTQ        CX, CX
	JZ           done
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
	VBROADCASTSD 16(R12), Z16
	VMULPD       Z21, Z16, Z16
	VMULPD       Z7, Z16, Z20
	VMULPD.BCST  32(R12), Z11, Z16
	VMULPD.BCST  32+8(R12), Z12, Z17
	VSUBPD       Z17, Z16, Z16
	VADDPD       Z16, Z20, Z20
	VADDPD       Z20, Z20, Z16
	VMULPD       (R13), Z16, Z16
	VADDPD       Z16, Z3, Z3
	CMPQ         CX, $1
	JEQ          done
	MOVQ         R9, R11
	LEAQ         128(R9), R10
	ADDQ         $384, R9
	ADDQ         $48, R12
	ADDQ         $48, R8
	ADDQ         $64, R13
	MOVQ         $2, SI

row:
	VMULPD.BCST  (R8), Z2, Z5
	VBROADCASTSD 8(R8), Z6
	VMULPD       (R10), Z5, Z7
	VMULPD       (R11), Z6, Z8
	VSUBPD       Z8, Z7, Z7
	VMULPD       64(R10), Z5, Z9
	VMULPD       64(R11), Z6, Z10
	VSUBPD       Z10, Z9, Z9
	VMOVUPD      Z7, (R9)
	VMOVUPD      Z9, 64(R9)
	VBROADCASTSD 0(R12), Z16
	VMULPD       Z21, Z16, Z16
	VMULPD       Z7, Z16, Z20
	ADDQ         $16, R8
	ADDQ         $128, R9
	ADDQ         $128, R10
	ADDQ         $128, R11
	ADDQ         $16, R12
	LEAQ         -2(SI), DX
	TESTQ        DX, DX
	JZ           diag

entry:
	VMULPD.BCST  (R8), Z2, Z5
	VBROADCASTSD 8(R8), Z6
	VMULPD       (R10), Z5, Z7
	VMULPD       (R11), Z6, Z8
	VSUBPD       Z8, Z7, Z7
	VMULPD       64(R10), Z5, Z9
	VMULPD       64(R11), Z6, Z10
	VSUBPD       Z10, Z9, Z9
	VMOVUPD      Z7, (R9)
	VMOVUPD      Z9, 64(R9)
	VMULPD.BCST  0(R12), Z7, Z16
	VMULPD.BCST  0+8(R12), Z9, Z17
	VSUBPD       Z17, Z16, Z16
	VADDPD       Z16, Z20, Z20
	ADDQ         $16, R8
	ADDQ         $128, R9
	ADDQ         $128, R10
	ADDQ         $128, R11
	ADDQ         $16, R12
	DECQ         DX
	JNZ          entry

diag:
	VMOVUPD      (R10), Z11
	VMOVUPD      64(R10), Z12
	VMULPD.BCST  (R8), Z2, Z5
	VMULPD       Z11, Z5, Z7
	VMULPD       Z12, Z5, Z9
	VMULPD       Z11, Z0, Z13
	VMULPD       Z12, Z1, Z14
	VSUBPD       Z14, Z13, Z13
	VMULPD       Z12, Z0, Z14
	VMULPD       Z11, Z1, Z15
	VADDPD       Z15, Z14, Z14
	VMULPD.BCST  16(R8), Z13, Z11
	VMULPD.BCST  16(R8), Z14, Z12
	VMOVUPD      Z7, (R9)
	VMOVUPD      Z9, 64(R9)
	VMOVUPD      Z11, 128(R9)
	VMOVUPD      Z12, 192(R9)
	VMULPD.BCST  0(R12), Z7, Z16
	VMULPD.BCST  0+8(R12), Z9, Z17
	VSUBPD       Z17, Z16, Z16
	VADDPD       Z16, Z20, Z20
	VMULPD.BCST  16(R12), Z11, Z16
	VMULPD.BCST  16+8(R12), Z12, Z17
	VSUBPD       Z17, Z16, Z16
	VADDPD       Z16, Z20, Z20
	VADDPD       Z20, Z20, Z16
	VMULPD       (R13), Z16, Z16
	VADDPD       Z16, Z3, Z3
	ADDQ         $32, R8
	ADDQ         $256, R9
	ADDQ         $128, R10
	ADDQ         $32, R12
	ADDQ         $64, R13
	INCQ         SI
	CMPQ         SI, CX
	JLE          row

done:
	VMOVUPD      Z3, PB_POT(BX)
	VZEROUPPER
	RET

// func pointMillerAVX512(p, start int, scale []float64, pb *pointBlock) (over uint8)
TEXT ·pointMillerAVX512(SB), NOSPLIT, $0-49
	MOVQ         p+0(FP), CX
	MOVQ         start+8(FP), DX
	MOVQ         scale_base+16(FP), R8
	MOVQ         pb+40(FP), BX
	MOVQ         PB_RAD(BX), R13
	VMOVUPD      PB_INV(BX), Z0
	VPXORQ       Z1, Z1, Z1
	VBROADCASTSD ptconst<>+PT_ONE(SB), Z2
	VMOVAPD      Z2, Z5
	LEAQ         1(DX)(DX*1), AX
	VCVTSI2SDQ   AX, X3, X3
	VBROADCASTSD X3, Z3
	VBROADCASTSD ptconst<>+PT_TWO(SB), Z4
	LEAQ         1(CX), SI

up: // n = start … p+2: nothing stored
	CMPQ         DX, SI
	JLE          rows
	VMULPD       Z0, Z3, Z6
	VFMADD213PD  Z1, Z2, Z6
	VMOVAPD      Z2, Z1
	VMOVAPD      Z6, Z2
	VMAXPD       Z2, Z5, Z5
	VSUBPD       Z4, Z3, Z3
	DECQ         DX
	JMP          up

rows: // n = p+1 … 1: f_{n-1} to row n-1
	MOVQ         CX, AX
	SHLQ         $6, AX
	ADDQ         R13, AX

store:
	VMULPD       Z0, Z3, Z6
	VFMADD213PD  Z1, Z2, Z6
	VMOVAPD      Z2, Z1
	VMOVAPD      Z6, Z2
	VMAXPD       Z2, Z5, Z5
	VSUBPD       Z4, Z3, Z3
	VMOVUPD      Z2, (AX)
	SUBQ         $64, AX
	DECQ         DX
	JNZ          store
	VBROADCASTSD ptconst<>+PT_BIG(SB), Z6
	VCMPPD       $0x1e, Z6, Z5, K1
	KMOVW        K1, AX
	MOVB         AX, over+48(FP)
	VMOVUPD      PB_I0(BX), Z6 // row n = (f_n · i_0/f_0) · scale[n]
	VDIVPD       (R13), Z6, Z6
	LEAQ         1(CX), DX

scale:
	VMULPD       (R13), Z6, Z7
	VMULPD.BCST  (R8), Z7, Z7
	VMOVUPD      Z7, (R13)
	ADDQ         $64, R13
	ADDQ         $8, R8
	DECQ         DX
	JNZ          scale
	VZEROUPPER
	RET

// func pointBesselKAVX512(p int, scale []float64, pb *pointBlock)
TEXT ·pointBesselKAVX512(SB), NOSPLIT, $0-40
	MOVQ         p+0(FP), CX
	MOVQ         scale_base+8(FP), R8
	MOVQ         pb+32(FP), BX
	MOVQ         PB_RAD(BX), R13
	VMOVUPD      PB_XL(BX), Z0
	VBROADCASTSD ptconst<>+PT_ONE(SB), Z1
	VDIVPD       Z0, Z1, Z1
	VPXORQ       Z2, Z2, Z2
	VSUBPD       Z0, Z2, Z2
	VMULPD.BCST  yukconst<>+YK_LOG2E(SB), Z2, Z3
	VRNDSCALEPD  $0, Z3, Z3
	VFNMADD231PD.BCST yukconst<>+YK_LN2HI(SB), Z3, Z2
	VFNMADD231PD.BCST yukconst<>+YK_LN2LO(SB), Z3, Z2
	VBROADCASTSD yukconst<>+YK_C13(SB), Z4
	VFMADD213PD.BCST yukconst<>+YK_C12(SB), Z2, Z4
	VFMADD213PD.BCST yukconst<>+YK_C11(SB), Z2, Z4
	VFMADD213PD.BCST yukconst<>+YK_C10(SB), Z2, Z4
	VFMADD213PD.BCST yukconst<>+YK_C9(SB), Z2, Z4
	VFMADD213PD.BCST yukconst<>+YK_C8(SB), Z2, Z4
	VFMADD213PD.BCST yukconst<>+YK_C7(SB), Z2, Z4
	VFMADD213PD.BCST yukconst<>+YK_C6(SB), Z2, Z4
	VFMADD213PD.BCST yukconst<>+YK_C5(SB), Z2, Z4
	VFMADD213PD.BCST yukconst<>+YK_C4(SB), Z2, Z4
	VFMADD213PD.BCST yukconst<>+YK_C3(SB), Z2, Z4
	VFMADD213PD.BCST yukconst<>+YK_C2(SB), Z2, Z4
	VFMADD213PD.BCST yukconst<>+YK_C1(SB), Z2, Z4
	VFMADD213PD.BCST yukconst<>+YK_C0(SB), Z2, Z4
	VSCALEFPD    Z3, Z4, Z4
	VMULPD.BCST  ptconst<>+PT_PI(SB), Z4, Z4
	VMULPD.BCST  ptconst<>+PT_HALF(SB), Z4, Z4
	VMULPD       Z1, Z4, Z5
	VMULPD.BCST  (R8), Z5, Z7
	VMOVUPD      Z7, (R13)
	TESTQ        CX, CX
	JZ           done
	VMULPD       Z1, Z1, Z6
	VADDPD       Z6, Z1, Z6
	VMULPD       Z6, Z4, Z6
	VMULPD.BCST  8(R8), Z6, Z7
	VMOVUPD      Z7, 64(R13)
	CMPQ         CX, $1
	JEQ          done
	VBROADCASTSD ptconst<>+PT_THREE(SB), Z8
	VBROADCASTSD ptconst<>+PT_TWO(SB), Z9
	ADDQ         $128, R13
	ADDQ         $16, R8
	LEAQ         -1(CX), DX

row:
	VMULPD       Z1, Z8, Z7
	VMULPD       Z6, Z7, Z7
	VADDPD       Z7, Z5, Z7
	VMOVAPD      Z6, Z5
	VMOVAPD      Z7, Z6
	VMULPD.BCST  (R8), Z7, Z7
	VMOVUPD      Z7, (R13)
	VADDPD       Z9, Z8, Z8
	ADDQ         $64, R13
	ADDQ         $8, R8
	DECQ         DX
	JNZ          row

done:
	VZEROUPPER
	RET

// func pointProjectAVX2(p int, steps, cn []float64, pb *pointBlock)
TEXT ·pointProjectAVX2(SB), NOSPLIT, $0-64
	MOVQ         p+0(FP), CX
	MOVQ         steps_base+8(FP), R8
	MOVQ         cn_base+32(FP), R14
	MOVQ         pb+56(FP), BX
	MOVQ         PB_RAD(BX), R13
	MOVQ         PB_YLM(BX), R9
	MOVQ         PB_ACC(BX), R12
	VMOVUPD      PB_X(BX), Y0
	VMOVUPD      PB_Y(BX), Y1
	VMOVUPD      PB_Z(BX), Y2
	VMOVUPD      PB_Q(BX), Y3
	VBROADCASTSD (R14), Y4
	VMULPD       Y4, Y3, Y4
	VMULPD       (R13), Y4, Y4
	VXORPD       Y10, Y10, Y10
	VBROADCASTSD (R8), Y8
	VMOVUPD      Y8, (R9)
	VMOVUPD      Y10, 32(R9)
	VMULPD       Y4, Y8, Y13
	VADDPD       0(R12), Y13, Y13
	VMOVUPD      Y13, 0(R12)
	VMULPD       Y4, Y10, Y14
	VMOVUPD      0+32(R12), Y15
	VSUBPD       Y14, Y15, Y15
	VMOVUPD      Y15, 0+32(R12)
	TESTQ        CX, CX
	JZ           done
	ADDQ         $8, R14
	ADDQ         $32, R13
	VBROADCASTSD (R14), Y4
	VMULPD       Y4, Y3, Y4
	VMULPD       (R13), Y4, Y4
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
	VMULPD       Y4, Y7, Y13
	VADDPD       64(R12), Y13, Y13
	VMOVUPD      Y13, 64(R12)
	VMULPD       Y4, Y10, Y14
	VMOVUPD      64+32(R12), Y15
	VSUBPD       Y14, Y15, Y15
	VMOVUPD      Y15, 64+32(R12)
	VMULPD       Y4, Y11, Y13
	VADDPD       128(R12), Y13, Y13
	VMOVUPD      Y13, 128(R12)
	VMULPD       Y4, Y12, Y14
	VMOVUPD      128+32(R12), Y15
	VSUBPD       Y14, Y15, Y15
	VMOVUPD      Y15, 128+32(R12)
	CMPQ         CX, $1
	JEQ          done
	MOVQ         R9, R11
	LEAQ         64(R9), R10
	ADDQ         $192, R9
	ADDQ         $192, R12
	ADDQ         $48, R8
	ADDQ         $32, R13
	ADDQ         $8, R14
	MOVQ         $2, SI

row:
	VBROADCASTSD (R14), Y4
	VMULPD       Y4, Y3, Y4
	VMULPD       (R13), Y4, Y4
	LEAQ         -1(SI), DX

entry:
	VBROADCASTSD (R8), Y5
	VMULPD       Y2, Y5, Y5
	VBROADCASTSD 8(R8), Y6
	VMULPD       (R10), Y5, Y7
	VMULPD       (R11), Y6, Y8
	VSUBPD       Y8, Y7, Y7
	VMULPD       32(R10), Y5, Y9
	VMULPD       32(R11), Y6, Y10
	VSUBPD       Y10, Y9, Y9
	VMOVUPD      Y7, (R9)
	VMOVUPD      Y9, 32(R9)
	VMULPD       Y4, Y7, Y13
	VADDPD       0(R12), Y13, Y13
	VMOVUPD      Y13, 0(R12)
	VMULPD       Y4, Y9, Y14
	VMOVUPD      0+32(R12), Y15
	VSUBPD       Y14, Y15, Y15
	VMOVUPD      Y15, 0+32(R12)
	ADDQ         $16, R8
	ADDQ         $64, R9
	ADDQ         $64, R10
	ADDQ         $64, R11
	ADDQ         $64, R12
	DECQ         DX
	JNZ          entry
	VMOVUPD      (R10), Y11
	VMOVUPD      32(R10), Y12
	VBROADCASTSD (R8), Y5
	VMULPD       Y2, Y5, Y5
	VMULPD       Y11, Y5, Y7
	VMULPD       Y12, Y5, Y9
	VMULPD       Y11, Y0, Y13
	VMULPD       Y12, Y1, Y14
	VSUBPD       Y14, Y13, Y13
	VMULPD       Y12, Y0, Y14
	VMULPD       Y11, Y1, Y15
	VADDPD       Y15, Y14, Y14
	VBROADCASTSD 16(R8), Y5
	VMULPD       Y5, Y13, Y11
	VMULPD       Y5, Y14, Y12
	VMOVUPD      Y7, (R9)
	VMOVUPD      Y9, 32(R9)
	VMOVUPD      Y11, 64(R9)
	VMOVUPD      Y12, 96(R9)
	VMULPD       Y4, Y7, Y13
	VADDPD       0(R12), Y13, Y13
	VMOVUPD      Y13, 0(R12)
	VMULPD       Y4, Y9, Y14
	VMOVUPD      0+32(R12), Y15
	VSUBPD       Y14, Y15, Y15
	VMOVUPD      Y15, 0+32(R12)
	VMULPD       Y4, Y11, Y13
	VADDPD       64(R12), Y13, Y13
	VMOVUPD      Y13, 64(R12)
	VMULPD       Y4, Y12, Y14
	VMOVUPD      64+32(R12), Y15
	VSUBPD       Y14, Y15, Y15
	VMOVUPD      Y15, 64+32(R12)
	ADDQ         $32, R8
	ADDQ         $128, R9
	ADDQ         $64, R10
	ADDQ         $128, R12
	ADDQ         $32, R13
	ADDQ         $8, R14
	INCQ         SI
	CMPQ         SI, CX
	JLE          row

done:
	VZEROUPPER
	RET

// func pointEvalAVX2(p int, steps []float64, coeff []complex128, pb *pointBlock)
TEXT ·pointEvalAVX2(SB), NOSPLIT, $0-64
	MOVQ         p+0(FP), CX
	MOVQ         steps_base+8(FP), R8
	MOVQ         coeff_base+32(FP), R12
	MOVQ         pb+56(FP), BX
	MOVQ         PB_RAD(BX), R13
	MOVQ         PB_YLM(BX), R9
	VMOVUPD      PB_X(BX), Y0
	VMOVUPD      PB_Y(BX), Y1
	VMOVUPD      PB_Z(BX), Y2
	VXORPD       Y3, Y3, Y3
	VXORPD       Y10, Y10, Y10
	VBROADCASTSD (R8), Y8
	VMOVUPD      Y8, (R9)
	VMOVUPD      Y10, 32(R9)
	VBROADCASTSD 0(R12), Y13
	VBROADCASTSD ptconst<>+PT_HALF(SB), Y14
	VMULPD       Y14, Y13, Y13
	VMULPD       Y8, Y13, Y4
	VADDPD       Y4, Y4, Y13
	VMULPD       (R13), Y13, Y13
	VADDPD       Y13, Y3, Y3
	TESTQ        CX, CX
	JZ           done
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
	VBROADCASTSD 16(R12), Y13
	VBROADCASTSD ptconst<>+PT_HALF(SB), Y14
	VMULPD       Y14, Y13, Y13
	VMULPD       Y7, Y13, Y4
	VBROADCASTSD 32(R12), Y13
	VMULPD       Y11, Y13, Y13
	VBROADCASTSD 32+8(R12), Y14
	VMULPD       Y12, Y14, Y14
	VSUBPD       Y14, Y13, Y13
	VADDPD       Y13, Y4, Y4
	VADDPD       Y4, Y4, Y13
	VMULPD       (R13), Y13, Y13
	VADDPD       Y13, Y3, Y3
	CMPQ         CX, $1
	JEQ          done
	MOVQ         R9, R11
	LEAQ         64(R9), R10
	ADDQ         $192, R9
	ADDQ         $48, R12
	ADDQ         $48, R8
	ADDQ         $32, R13
	MOVQ         $2, SI

row:
	VBROADCASTSD (R8), Y5
	VMULPD       Y2, Y5, Y5
	VBROADCASTSD 8(R8), Y6
	VMULPD       (R10), Y5, Y7
	VMULPD       (R11), Y6, Y8
	VSUBPD       Y8, Y7, Y7
	VMULPD       32(R10), Y5, Y9
	VMULPD       32(R11), Y6, Y10
	VSUBPD       Y10, Y9, Y9
	VMOVUPD      Y7, (R9)
	VMOVUPD      Y9, 32(R9)
	VBROADCASTSD 0(R12), Y13
	VBROADCASTSD ptconst<>+PT_HALF(SB), Y14
	VMULPD       Y14, Y13, Y13
	VMULPD       Y7, Y13, Y4
	ADDQ         $16, R8
	ADDQ         $64, R9
	ADDQ         $64, R10
	ADDQ         $64, R11
	ADDQ         $16, R12
	LEAQ         -2(SI), DX
	TESTQ        DX, DX
	JZ           diag

entry:
	VBROADCASTSD (R8), Y5
	VMULPD       Y2, Y5, Y5
	VBROADCASTSD 8(R8), Y6
	VMULPD       (R10), Y5, Y7
	VMULPD       (R11), Y6, Y8
	VSUBPD       Y8, Y7, Y7
	VMULPD       32(R10), Y5, Y9
	VMULPD       32(R11), Y6, Y10
	VSUBPD       Y10, Y9, Y9
	VMOVUPD      Y7, (R9)
	VMOVUPD      Y9, 32(R9)
	VBROADCASTSD 0(R12), Y13
	VMULPD       Y7, Y13, Y13
	VBROADCASTSD 0+8(R12), Y14
	VMULPD       Y9, Y14, Y14
	VSUBPD       Y14, Y13, Y13
	VADDPD       Y13, Y4, Y4
	ADDQ         $16, R8
	ADDQ         $64, R9
	ADDQ         $64, R10
	ADDQ         $64, R11
	ADDQ         $16, R12
	DECQ         DX
	JNZ          entry

diag:
	VMOVUPD      (R10), Y11
	VMOVUPD      32(R10), Y12
	VBROADCASTSD (R8), Y5
	VMULPD       Y2, Y5, Y5
	VMULPD       Y11, Y5, Y7
	VMULPD       Y12, Y5, Y9
	VMULPD       Y11, Y0, Y13
	VMULPD       Y12, Y1, Y14
	VSUBPD       Y14, Y13, Y13
	VMULPD       Y12, Y0, Y14
	VMULPD       Y11, Y1, Y15
	VADDPD       Y15, Y14, Y14
	VBROADCASTSD 16(R8), Y5
	VMULPD       Y5, Y13, Y11
	VMULPD       Y5, Y14, Y12
	VMOVUPD      Y7, (R9)
	VMOVUPD      Y9, 32(R9)
	VMOVUPD      Y11, 64(R9)
	VMOVUPD      Y12, 96(R9)
	VBROADCASTSD 0(R12), Y13
	VMULPD       Y7, Y13, Y13
	VBROADCASTSD 0+8(R12), Y14
	VMULPD       Y9, Y14, Y14
	VSUBPD       Y14, Y13, Y13
	VADDPD       Y13, Y4, Y4
	VBROADCASTSD 16(R12), Y13
	VMULPD       Y11, Y13, Y13
	VBROADCASTSD 16+8(R12), Y14
	VMULPD       Y12, Y14, Y14
	VSUBPD       Y14, Y13, Y13
	VADDPD       Y13, Y4, Y4
	VADDPD       Y4, Y4, Y13
	VMULPD       (R13), Y13, Y13
	VADDPD       Y13, Y3, Y3
	ADDQ         $32, R8
	ADDQ         $128, R9
	ADDQ         $64, R10
	ADDQ         $32, R12
	ADDQ         $32, R13
	INCQ         SI
	CMPQ         SI, CX
	JLE          row

done:
	VMOVUPD      Y3, PB_POT(BX)
	VZEROUPPER
	RET

// func pointMillerAVX2(p, start int, scale []float64, pb *pointBlock) (over uint8)
TEXT ·pointMillerAVX2(SB), NOSPLIT, $0-49
	MOVQ         p+0(FP), CX
	MOVQ         start+8(FP), DX
	MOVQ         scale_base+16(FP), R8
	MOVQ         pb+40(FP), BX
	MOVQ         PB_RAD(BX), R13
	VMOVUPD      PB_INV(BX), Y0
	VXORPD       Y1, Y1, Y1
	VBROADCASTSD ptconst<>+PT_ONE(SB), Y2
	VMOVAPD      Y2, Y5
	LEAQ         1(DX)(DX*1), AX
	VCVTSI2SDQ   AX, X3, X3
	VBROADCASTSD X3, Y3
	VBROADCASTSD ptconst<>+PT_TWO(SB), Y4
	LEAQ         1(CX), SI

up: // n = start … p+2: nothing stored
	CMPQ         DX, SI
	JLE          rows
	VMULPD       Y0, Y3, Y6
	VFMADD213PD  Y1, Y2, Y6
	VMOVAPD      Y2, Y1
	VMOVAPD      Y6, Y2
	VMAXPD       Y2, Y5, Y5
	VSUBPD       Y4, Y3, Y3
	DECQ         DX
	JMP          up

rows: // n = p+1 … 1: f_{n-1} to row n-1
	MOVQ         CX, AX
	SHLQ         $5, AX
	ADDQ         R13, AX

store:
	VMULPD       Y0, Y3, Y6
	VFMADD213PD  Y1, Y2, Y6
	VMOVAPD      Y2, Y1
	VMOVAPD      Y6, Y2
	VMAXPD       Y2, Y5, Y5
	VSUBPD       Y4, Y3, Y3
	VMOVUPD      Y2, (AX)
	SUBQ         $32, AX
	DECQ         DX
	JNZ          store
	VBROADCASTSD ptconst<>+PT_BIG(SB), Y6
	VCMPPD       $0x1e, Y6, Y5, Y7
	VMOVMSKPD    Y7, AX
	MOVB         AX, over+48(FP)
	VMOVUPD      PB_I0(BX), Y6 // row n = (f_n · i_0/f_0) · scale[n]
	VDIVPD       (R13), Y6, Y6
	LEAQ         1(CX), DX

scale:
	VMULPD       (R13), Y6, Y7
	VBROADCASTSD (R8), Y8
	VMULPD       Y8, Y7, Y7
	VMOVUPD      Y7, (R13)
	ADDQ         $32, R13
	ADDQ         $8, R8
	DECQ         DX
	JNZ          scale
	VZEROUPPER
	RET

// func pointBesselKAVX2(p int, scale []float64, pb *pointBlock)
TEXT ·pointBesselKAVX2(SB), NOSPLIT, $0-40
	MOVQ         p+0(FP), CX
	MOVQ         scale_base+8(FP), R8
	MOVQ         pb+32(FP), BX
	MOVQ         PB_RAD(BX), R13
	VMOVUPD      PB_XL(BX), Y0
	VBROADCASTSD ptconst<>+PT_ONE(SB), Y1
	VDIVPD       Y0, Y1, Y1
	VXORPD       Y2, Y2, Y2
	VSUBPD       Y0, Y2, Y2
	VMULPD       yukconst<>+YK_LOG2E(SB), Y2, Y3
	VROUNDPD     $0, Y3, Y3
	VFNMADD231PD yukconst<>+YK_LN2HI(SB), Y3, Y2
	VFNMADD231PD yukconst<>+YK_LN2LO(SB), Y3, Y2
	VMOVUPD      yukconst<>+YK_C13(SB), Y4
	VFMADD213PD  yukconst<>+YK_C12(SB), Y2, Y4
	VFMADD213PD  yukconst<>+YK_C11(SB), Y2, Y4
	VFMADD213PD  yukconst<>+YK_C10(SB), Y2, Y4
	VFMADD213PD  yukconst<>+YK_C9(SB), Y2, Y4
	VFMADD213PD  yukconst<>+YK_C8(SB), Y2, Y4
	VFMADD213PD  yukconst<>+YK_C7(SB), Y2, Y4
	VFMADD213PD  yukconst<>+YK_C6(SB), Y2, Y4
	VFMADD213PD  yukconst<>+YK_C5(SB), Y2, Y4
	VFMADD213PD  yukconst<>+YK_C4(SB), Y2, Y4
	VFMADD213PD  yukconst<>+YK_C3(SB), Y2, Y4
	VFMADD213PD  yukconst<>+YK_C2(SB), Y2, Y4
	VFMADD213PD  yukconst<>+YK_C1(SB), Y2, Y4
	VFMADD213PD  yukconst<>+YK_C0(SB), Y2, Y4
	VMULPD       yukconst<>+YK_C2(SB), Y3, Y10
	VROUNDPD     $1, Y10, Y10
	VSUBPD       Y10, Y3, Y3
	VADDPD       yukconst<>+YK_MAGIC(SB), Y10, Y10
	VADDPD       yukconst<>+YK_MAGIC(SB), Y3, Y3
	VPSLLQ       $52, Y10, Y10
	VPSLLQ       $52, Y3, Y3
	VMULPD       Y10, Y4, Y4
	VMULPD       Y3, Y4, Y4
	VBROADCASTSD ptconst<>+PT_PI(SB), Y10
	VMULPD       Y10, Y4, Y4
	VBROADCASTSD ptconst<>+PT_HALF(SB), Y10
	VMULPD       Y10, Y4, Y4
	VMULPD       Y1, Y4, Y5
	VBROADCASTSD (R8), Y10
	VMULPD       Y10, Y5, Y7
	VMOVUPD      Y7, (R13)
	TESTQ        CX, CX
	JZ           done
	VMULPD       Y1, Y1, Y6
	VADDPD       Y6, Y1, Y6
	VMULPD       Y6, Y4, Y6
	VBROADCASTSD 8(R8), Y10
	VMULPD       Y10, Y6, Y7
	VMOVUPD      Y7, 32(R13)
	CMPQ         CX, $1
	JEQ          done
	VBROADCASTSD ptconst<>+PT_THREE(SB), Y8
	VBROADCASTSD ptconst<>+PT_TWO(SB), Y9
	ADDQ         $64, R13
	ADDQ         $16, R8
	LEAQ         -1(CX), DX

row:
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
	JNZ          row

done:
	VZEROUPPER
	RET
