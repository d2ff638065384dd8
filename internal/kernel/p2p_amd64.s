// Code generated by asmgen from asmgen/p2p.go (go generate); DO NOT EDIT.

//go:build !purego

#include "textflag.h"

// pairBlock layout: n at 0, then x, y, z, acc, 256 float64 each, then x32,
// y32, z32, part, 256 float32 each (TestPairBlockLayout).
#define BLK_X 8
#define BLK_Y 2056
#define BLK_Z 4104
#define BLK_ACC 6152
#define BLK_X32 8200
#define BLK_Y32 9224
#define BLK_Z32 10248
#define BLK_PART 11272

DATA pairconst<>+0(SB)/8, $0x3fe0000000000000
DATA pairconst<>+8(SB)/8, $0x7ff0000000000000
GLOBL pairconst<>(SB), RODATA|NOPTR, $16

DATA pair32c<>+0(SB)/8, $0x4040000040400000
DATA pair32c<>+8(SB)/8, $0x4040000040400000
DATA pair32c<>+16(SB)/8, $0x4040000040400000
DATA pair32c<>+24(SB)/8, $0x4040000040400000
DATA pair32c<>+32(SB)/8, $0x3780000037800000
DATA pair32c<>+40(SB)/8, $0x3780000037800000
DATA pair32c<>+48(SB)/8, $0x3780000037800000
DATA pair32c<>+56(SB)/8, $0x3780000037800000
GLOBL pair32c<>(SB), RODATA|NOPTR, $64

#define Y32_NHALF 0
#define Y32_TMIN 32
#define Y32_CLAMP 64
#define Y32_LOG2E 96
#define Y32_LN2HI 128
#define Y32_LN2LO 160
#define Y32_MAGIC 192
#define Y32_C0 224
#define Y32_C1 256
#define Y32_C2 288
#define Y32_C3 320
#define Y32_C4 352
#define Y32_C5 384
#define Y32_C6 416
DATA yuk32c<>+0(SB)/8, $0xbf000000bf000000
DATA yuk32c<>+8(SB)/8, $0xbf000000bf000000
DATA yuk32c<>+16(SB)/8, $0xbf000000bf000000
DATA yuk32c<>+24(SB)/8, $0xbf000000bf000000
DATA yuk32c<>+32(SB)/8, $0xc2adcccdc2adcccd
DATA yuk32c<>+40(SB)/8, $0xc2adcccdc2adcccd
DATA yuk32c<>+48(SB)/8, $0xc2adcccdc2adcccd
DATA yuk32c<>+56(SB)/8, $0xc2adcccdc2adcccd
DATA yuk32c<>+64(SB)/8, $0xc2dc0000c2dc0000
DATA yuk32c<>+72(SB)/8, $0xc2dc0000c2dc0000
DATA yuk32c<>+80(SB)/8, $0xc2dc0000c2dc0000
DATA yuk32c<>+88(SB)/8, $0xc2dc0000c2dc0000
DATA yuk32c<>+96(SB)/8, $0x3fb8aa3b3fb8aa3b
DATA yuk32c<>+104(SB)/8, $0x3fb8aa3b3fb8aa3b
DATA yuk32c<>+112(SB)/8, $0x3fb8aa3b3fb8aa3b
DATA yuk32c<>+120(SB)/8, $0x3fb8aa3b3fb8aa3b
DATA yuk32c<>+128(SB)/8, $0x3f3172183f317218
DATA yuk32c<>+136(SB)/8, $0x3f3172183f317218
DATA yuk32c<>+144(SB)/8, $0x3f3172183f317218
DATA yuk32c<>+152(SB)/8, $0x3f3172183f317218
DATA yuk32c<>+160(SB)/8, $0xb102e308b102e308
DATA yuk32c<>+168(SB)/8, $0xb102e308b102e308
DATA yuk32c<>+176(SB)/8, $0xb102e308b102e308
DATA yuk32c<>+184(SB)/8, $0xb102e308b102e308
DATA yuk32c<>+192(SB)/8, $0x4b4000004b400000
DATA yuk32c<>+200(SB)/8, $0x4b4000004b400000
DATA yuk32c<>+208(SB)/8, $0x4b4000004b400000
DATA yuk32c<>+216(SB)/8, $0x4b4000004b400000
DATA yuk32c<>+224(SB)/8, $0x3f8000003f800000
DATA yuk32c<>+232(SB)/8, $0x3f8000003f800000
DATA yuk32c<>+240(SB)/8, $0x3f8000003f800000
DATA yuk32c<>+248(SB)/8, $0x3f8000003f800000
DATA yuk32c<>+256(SB)/8, $0x3f8000003f800000
DATA yuk32c<>+264(SB)/8, $0x3f8000003f800000
DATA yuk32c<>+272(SB)/8, $0x3f8000003f800000
DATA yuk32c<>+280(SB)/8, $0x3f8000003f800000
DATA yuk32c<>+288(SB)/8, $0x3efffffe3efffffe
DATA yuk32c<>+296(SB)/8, $0x3efffffe3efffffe
DATA yuk32c<>+304(SB)/8, $0x3efffffe3efffffe
DATA yuk32c<>+312(SB)/8, $0x3efffffe3efffffe
DATA yuk32c<>+320(SB)/8, $0x3e2aaa0c3e2aaa0c
DATA yuk32c<>+328(SB)/8, $0x3e2aaa0c3e2aaa0c
DATA yuk32c<>+336(SB)/8, $0x3e2aaa0c3e2aaa0c
DATA yuk32c<>+344(SB)/8, $0x3e2aaa0c3e2aaa0c
DATA yuk32c<>+352(SB)/8, $0x3d2aac123d2aac12
DATA yuk32c<>+360(SB)/8, $0x3d2aac123d2aac12
DATA yuk32c<>+368(SB)/8, $0x3d2aac123d2aac12
DATA yuk32c<>+376(SB)/8, $0x3d2aac123d2aac12
DATA yuk32c<>+384(SB)/8, $0x3c0933ec3c0933ec
DATA yuk32c<>+392(SB)/8, $0x3c0933ec3c0933ec
DATA yuk32c<>+400(SB)/8, $0x3c0933ec3c0933ec
DATA yuk32c<>+408(SB)/8, $0x3c0933ec3c0933ec
DATA yuk32c<>+416(SB)/8, $0x3ab573703ab57370
DATA yuk32c<>+424(SB)/8, $0x3ab573703ab57370
DATA yuk32c<>+432(SB)/8, $0x3ab573703ab57370
DATA yuk32c<>+440(SB)/8, $0x3ab573703ab57370
GLOBL yuk32c<>(SB), RODATA|NOPTR, $448

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


// func laplacePairsAVX512(src []geom.Point, q []float64, blk *pairBlock)
TEXT ·laplacePairsAVX512(SB), NOSPLIT, $0-56
	MOVQ         src_base+0(FP), SI
	MOVQ         src_len+8(FP), CX
	MOVQ         q_base+24(FP), DI
	MOVQ         blk+48(FP), BX
	MOVQ         (BX), DX
	ADDQ         $15, DX
	SHRQ         $4, DX // groups of 16 targets
	JZ           done
	TESTQ        CX, CX
	JZ           done
	VPXORQ       Z15, Z15, Z15
	VBROADCASTSD pairconst<>+0(SB), Z16
	VBROADCASTSD pairconst<>+8(SB), Z18

group:
	VMOVUPD      BLK_X(BX), Z0
	VMOVUPD      BLK_X+64(BX), Z1
	VMOVUPD      BLK_Y(BX), Z2
	VMOVUPD      BLK_Y+64(BX), Z3
	VMOVUPD      BLK_Z(BX), Z4
	VMOVUPD      BLK_Z+64(BX), Z5
	VMOVUPD      BLK_ACC(BX), Z6
	VMOVUPD      BLK_ACC+64(BX), Z7
	MOVQ         SI, R8
	MOVQ         DI, R9
	MOVQ         CX, R10

source:
	VBROADCASTSD 0(R8), Z8
	VBROADCASTSD 8(R8), Z9
	VBROADCASTSD 16(R8), Z10
	VBROADCASTSD (R9), Z11
	VSUBPD       Z8, Z0, Z12
	VSUBPD       Z9, Z2, Z13
	VSUBPD       Z10, Z4, Z14
	VMULPD       Z12, Z12, Z12
	VFMADD231PD  Z13, Z13, Z12
	VFMADD231PD  Z14, Z14, Z12
	VCMPPD       $4, Z15, Z12, K1
	VCMPPD       $0x19, Z18, Z12, K1, K1
	VRSQRT14PD   Z12, Z13
	VMULPD       Z16, Z12, Z12
	VMULPD       Z13, Z12, Z14
	VFNMADD213PD Z16, Z13, Z14
	VFMADD231PD  Z14, Z13, Z13
	VMULPD       Z13, Z12, Z14
	VFNMADD213PD Z16, Z13, Z14
	VFMADD231PD  Z14, Z13, Z13
	VFMADD231PD  Z13, Z11, K1, Z6
	VSUBPD       Z8, Z1, Z19
	VSUBPD       Z9, Z3, Z20
	VSUBPD       Z10, Z5, Z21
	VMULPD       Z19, Z19, Z19
	VFMADD231PD  Z20, Z20, Z19
	VFMADD231PD  Z21, Z21, Z19
	VCMPPD       $4, Z15, Z19, K2
	VCMPPD       $0x19, Z18, Z19, K2, K2
	VRSQRT14PD   Z19, Z20
	VMULPD       Z16, Z19, Z19
	VMULPD       Z20, Z19, Z21
	VFNMADD213PD Z16, Z20, Z21
	VFMADD231PD  Z21, Z20, Z20
	VMULPD       Z20, Z19, Z21
	VFNMADD213PD Z16, Z20, Z21
	VFMADD231PD  Z21, Z20, Z20
	VFMADD231PD  Z20, Z11, K2, Z7
	ADDQ         $24, R8
	ADDQ         $8, R9
	DECQ         R10
	JNZ          source
	VMOVUPD      Z6, BLK_ACC(BX)
	VMOVUPD      Z7, BLK_ACC+64(BX)
	ADDQ         $128, BX
	DECQ         DX
	JNZ          group

done:
	VZEROUPPER
	RET

// func laplacePairsAVX2(src []geom.Point, q []float64, blk *pairBlock)
TEXT ·laplacePairsAVX2(SB), NOSPLIT, $0-56
	MOVQ         src_base+0(FP), SI
	MOVQ         src_len+8(FP), CX
	MOVQ         q_base+24(FP), DI
	MOVQ         blk+48(FP), BX
	MOVQ         (BX), DX
	ADDQ         $7, DX
	SHRQ         $3, DX // groups of 8 targets
	JZ           done
	TESTQ        CX, CX
	JZ           done
	VXORPD       Y15, Y15, Y15

group:
	VMOVUPD      BLK_X(BX), Y0
	VMOVUPD      BLK_X+32(BX), Y1
	VMOVUPD      BLK_Y(BX), Y2
	VMOVUPD      BLK_Y+32(BX), Y3
	VMOVUPD      BLK_Z(BX), Y4
	VMOVUPD      BLK_Z+32(BX), Y5
	VMOVUPD      BLK_ACC(BX), Y6
	VMOVUPD      BLK_ACC+32(BX), Y7
	MOVQ         SI, R8
	MOVQ         DI, R9
	MOVQ         CX, R10

source:
	VBROADCASTSD 0(R8), Y8
	VBROADCASTSD 8(R8), Y9
	VBROADCASTSD 16(R8), Y10
	VBROADCASTSD (R9), Y11
	VSUBPD       Y8, Y0, Y12
	VSUBPD       Y9, Y2, Y13
	VSUBPD       Y10, Y4, Y14
	VMULPD       Y12, Y12, Y12
	VMULPD       Y13, Y13, Y13
	VMULPD       Y14, Y14, Y14
	VADDPD       Y13, Y12, Y12
	VADDPD       Y14, Y12, Y12
	VCMPPD       $4, Y15, Y12, Y13
	VSQRTPD      Y12, Y12
	VDIVPD       Y12, Y11, Y12
	VANDPD       Y13, Y12, Y12
	VADDPD       Y12, Y6, Y6
	VSUBPD       Y8, Y1, Y12
	VSUBPD       Y9, Y3, Y13
	VSUBPD       Y10, Y5, Y14
	VMULPD       Y12, Y12, Y12
	VMULPD       Y13, Y13, Y13
	VMULPD       Y14, Y14, Y14
	VADDPD       Y13, Y12, Y12
	VADDPD       Y14, Y12, Y12
	VCMPPD       $4, Y15, Y12, Y13
	VSQRTPD      Y12, Y12
	VDIVPD       Y12, Y11, Y12
	VANDPD       Y13, Y12, Y12
	VADDPD       Y12, Y7, Y7
	ADDQ         $24, R8
	ADDQ         $8, R9
	DECQ         R10
	JNZ          source
	VMOVUPD      Y6, BLK_ACC(BX)
	VMOVUPD      Y7, BLK_ACC+32(BX)
	ADDQ         $64, BX
	DECQ         DX
	JNZ          group

done:
	VZEROUPPER
	RET

// func laplacePairs32AVX512(ns []src32, src []geom.Point, blk *pairBlock) int
TEXT ·laplacePairs32AVX512(SB), NOSPLIT, $0-64
	MOVQ         ns_base+0(FP), SI
	MOVQ         ns_len+8(FP), CX
	MOVQ         src_base+24(FP), DI
	MOVQ         blk+48(FP), BX
	MOVQ         $0, ret+56(FP)
	MOVQ         (BX), DX
	ADDQ         $31, DX
	SHRQ         $5, DX // groups of 32 targets
	JZ           done
	TESTQ        CX, CX
	JZ           done
	MOVQ         BX, R12 // the group's float64 coordinates, 256 bytes a group
	VBROADCASTSS pair32c<>+0(SB), Z16
	VBROADCASTSS pair32c<>+32(SB), Z17

group:
	VMOVUPS      BLK_X32(BX), Z0
	VMOVUPS      BLK_X32+64(BX), Z1
	VMOVUPS      BLK_Y32(BX), Z2
	VMOVUPS      BLK_Y32+64(BX), Z3
	VMOVUPS      BLK_Z32(BX), Z4
	VMOVUPS      BLK_Z32+64(BX), Z5
	VPXORD       Z6, Z6, Z6
	VPXORD       Z7, Z7, Z7
	MOVQ         SI, R8
	MOVQ         DI, R9
	MOVQ         CX, R10

source:
	VBROADCASTSS 0(R8), Z8
	VBROADCASTSS 4(R8), Z9
	VBROADCASTSS 8(R8), Z10
	VBROADCASTSS 12(R8), Z11
	VSUBPS       Z8, Z0, Z12
	VSUBPS       Z9, Z2, Z13
	VSUBPS       Z10, Z4, Z14
	VMULPS       Z12, Z12, Z12
	VFMADD231PS  Z13, Z13, Z12
	VFMADD231PS  Z14, Z14, Z12
	VCMPPS       $0x1d, Z17, Z12, K1
	VRSQRT14PS   Z12, Z13
	VMULPS       Z13, Z12, Z14
	VFNMADD213PS Z16, Z13, Z14
	VMULPS       Z14, Z13, Z13
	VFMADD231PS  Z13, Z11, K1, Z6
	VSUBPS       Z8, Z1, Z19
	VSUBPS       Z9, Z3, Z20
	VSUBPS       Z10, Z5, Z21
	VMULPS       Z19, Z19, Z19
	VFMADD231PS  Z20, Z20, Z19
	VFMADD231PS  Z21, Z21, Z19
	VCMPPS       $0x1d, Z17, Z19, K2
	VRSQRT14PS   Z19, Z20
	VMULPS       Z20, Z19, Z21
	VFNMADD213PS Z16, Z20, Z21
	VMULPS       Z21, Z20, Z20
	VFMADD231PS  Z20, Z11, K2, Z7
	KANDW        K1, K2, K3
	KORTESTW     K3, K3
	JCC          close // a lane below r2Min

next:
	ADDQ         $16, R8
	ADDQ         $24, R9
	DECQ         R10
	JNZ          source
	VMOVUPS      Z6, BLK_PART(BX)
	VMOVUPS      Z7, BLK_PART+64(BX)
	ADDQ         $128, BX
	ADDQ         $256, R12
	DECQ         DX
	JNZ          group

done:
	VZEROUPPER
	RET

close:
	VBROADCASTSD 0(R9), Z24
	VBROADCASTSD 8(R9), Z25
	VBROADCASTSD 16(R9), Z26
	VCMPPD       $0, BLK_X+0(R12), Z24, K3
	VCMPPD       $0, BLK_Y+0(R12), Z25, K3, K3
	VCMPPD       $0, BLK_Z+0(R12), Z26, K3, K3
	VCMPPD       $0, BLK_X+64(R12), Z24, K4
	VCMPPD       $0, BLK_Y+64(R12), Z25, K4, K4
	VCMPPD       $0, BLK_Z+64(R12), Z26, K4, K4
	KUNPCKBW     K3, K4, K3
	KORW         K1, K3, K1
	VCMPPD       $0, BLK_X+128(R12), Z24, K4
	VCMPPD       $0, BLK_Y+128(R12), Z25, K4, K4
	VCMPPD       $0, BLK_Z+128(R12), Z26, K4, K4
	VCMPPD       $0, BLK_X+192(R12), Z24, K5
	VCMPPD       $0, BLK_Y+192(R12), Z25, K5, K5
	VCMPPD       $0, BLK_Z+192(R12), Z26, K5, K5
	KUNPCKBW     K4, K5, K4
	KORW         K2, K4, K2
	KANDW        K1, K2, K3
	KORTESTW     K3, K3
	JCS          next
	MOVQ         $1, ret+56(FP)
	VZEROUPPER
	RET

// func laplacePairs32AVX2(ns []src32, src []geom.Point, blk *pairBlock) int
TEXT ·laplacePairs32AVX2(SB), NOSPLIT, $0-64
	MOVQ         ns_base+0(FP), SI
	MOVQ         ns_len+8(FP), CX
	MOVQ         src_base+24(FP), DI
	MOVQ         blk+48(FP), BX
	MOVQ         $0, ret+56(FP)
	MOVQ         (BX), DX
	ADDQ         $15, DX
	SHRQ         $4, DX // groups of 16 targets
	JZ           done
	TESTQ        CX, CX
	JZ           done
	MOVQ         BX, R12 // the group's float64 coordinates, 128 bytes a group

group:
	VMOVUPS      BLK_X32(BX), Y0
	VMOVUPS      BLK_X32+32(BX), Y1
	VMOVUPS      BLK_Y32(BX), Y2
	VMOVUPS      BLK_Y32+32(BX), Y3
	VMOVUPS      BLK_Z32(BX), Y4
	VMOVUPS      BLK_Z32+32(BX), Y5
	VXORPS       Y6, Y6, Y6
	VXORPS       Y7, Y7, Y7
	MOVQ         SI, R8
	MOVQ         DI, R9
	MOVQ         CX, R10

source:
	VBROADCASTSS 0(R8), Y8
	VBROADCASTSS 4(R8), Y9
	VBROADCASTSS 8(R8), Y10
	VBROADCASTSS 12(R8), Y11
	VSUBPS       Y8, Y0, Y12
	VSUBPS       Y9, Y2, Y13
	VSUBPS       Y10, Y4, Y14
	VMULPS       Y12, Y12, Y12
	VFMADD231PS  Y13, Y13, Y12
	VFMADD231PS  Y14, Y14, Y12
	VCMPPS       $0x1d, pair32c<>+32(SB), Y12, Y15
	VRSQRTPS     Y12, Y13
	VMULPS       Y13, Y12, Y14
	VFNMADD213PS pair32c<>+0(SB), Y13, Y14
	VMULPS       Y14, Y13, Y13
	VANDPS       Y15, Y13, Y13
	VFMADD231PS  Y13, Y11, Y6
	VMOVMSKPS    Y15, AX
	MOVL         AX, R11
	VSUBPS       Y8, Y1, Y12
	VSUBPS       Y9, Y3, Y13
	VSUBPS       Y10, Y5, Y14
	VMULPS       Y12, Y12, Y12
	VFMADD231PS  Y13, Y13, Y12
	VFMADD231PS  Y14, Y14, Y12
	VCMPPS       $0x1d, pair32c<>+32(SB), Y12, Y15
	VRSQRTPS     Y12, Y13
	VMULPS       Y13, Y12, Y14
	VFNMADD213PS pair32c<>+0(SB), Y13, Y14
	VMULPS       Y14, Y13, Y13
	VANDPS       Y15, Y13, Y13
	VFMADD231PS  Y13, Y11, Y7
	VMOVMSKPS    Y15, AX
	SHLL         $8, AX
	ORL          AX, R11 // the 16 lanes' range mask
	CMPL         R11, $0xffff
	JNE          close

next:
	ADDQ         $16, R8
	ADDQ         $24, R9
	DECQ         R10
	JNZ          source
	VMOVUPS      Y6, BLK_PART(BX)
	VMOVUPS      Y7, BLK_PART+32(BX)
	ADDQ         $64, BX
	ADDQ         $128, R12
	DECQ         DX
	JNZ          group

done:
	VZEROUPPER
	RET

close:
	VBROADCASTSD 0(R9), Y12
	VBROADCASTSD 8(R9), Y13
	VBROADCASTSD 16(R9), Y14
	VCMPPD       $0, BLK_X+0(R12), Y12, Y8
	VCMPPD       $0, BLK_Y+0(R12), Y13, Y9
	VCMPPD       $0, BLK_Z+0(R12), Y14, Y10
	VANDPD       Y9, Y8, Y8
	VANDPD       Y10, Y8, Y8
	VMOVMSKPD    Y8, AX
	SHLL         $0, AX
	ORL          AX, R11
	VCMPPD       $0, BLK_X+32(R12), Y12, Y8
	VCMPPD       $0, BLK_Y+32(R12), Y13, Y9
	VCMPPD       $0, BLK_Z+32(R12), Y14, Y10
	VANDPD       Y9, Y8, Y8
	VANDPD       Y10, Y8, Y8
	VMOVMSKPD    Y8, AX
	SHLL         $4, AX
	ORL          AX, R11
	VCMPPD       $0, BLK_X+64(R12), Y12, Y8
	VCMPPD       $0, BLK_Y+64(R12), Y13, Y9
	VCMPPD       $0, BLK_Z+64(R12), Y14, Y10
	VANDPD       Y9, Y8, Y8
	VANDPD       Y10, Y8, Y8
	VMOVMSKPD    Y8, AX
	SHLL         $8, AX
	ORL          AX, R11
	VCMPPD       $0, BLK_X+96(R12), Y12, Y8
	VCMPPD       $0, BLK_Y+96(R12), Y13, Y9
	VCMPPD       $0, BLK_Z+96(R12), Y14, Y10
	VANDPD       Y9, Y8, Y8
	VANDPD       Y10, Y8, Y8
	VMOVMSKPD    Y8, AX
	SHLL         $12, AX
	ORL          AX, R11
	CMPL         R11, $0xffff
	JEQ          next
	MOVQ         $1, ret+56(FP)
	VZEROUPPER
	RET

// func yukawaPairs32AVX512(lam float32, ns []src32, src []geom.Point, blk *pairBlock) int
TEXT ·yukawaPairs32AVX512(SB), NOSPLIT, $0-72
	MOVQ         ns_base+8(FP), SI
	MOVQ         ns_len+16(FP), CX
	MOVQ         src_base+32(FP), DI
	MOVQ         blk+56(FP), BX
	MOVQ         $0, ret+64(FP)
	MOVQ         (BX), DX
	ADDQ         $31, DX
	SHRQ         $5, DX // groups of 32 targets
	JZ           done
	TESTQ        CX, CX
	JZ           done
	MOVQ         BX, R12 // the group's float64 coordinates, 256 bytes a group
	VBROADCASTSS pair32c<>+0(SB), Z16
	VBROADCASTSS pair32c<>+32(SB), Z17
	VBROADCASTSS lam+0(FP), Z18
	VMULPS.BCST  yuk32c<>+Y32_NHALF(SB), Z18, Z18
	VBROADCASTSS yuk32c<>+Y32_CLAMP(SB), Z15
	VBROADCASTSS yuk32c<>+Y32_LOG2E(SB), Z27
	VBROADCASTSS yuk32c<>+Y32_LN2HI(SB), Z28
	VBROADCASTSS yuk32c<>+Y32_LN2LO(SB), Z29
	VBROADCASTSS yuk32c<>+Y32_C6(SB), Z30

group:
	VMOVUPS      BLK_X32(BX), Z0
	VMOVUPS      BLK_X32+64(BX), Z1
	VMOVUPS      BLK_Y32(BX), Z2
	VMOVUPS      BLK_Y32+64(BX), Z3
	VMOVUPS      BLK_Z32(BX), Z4
	VMOVUPS      BLK_Z32+64(BX), Z5
	VPXORD       Z6, Z6, Z6
	VPXORD       Z7, Z7, Z7
	MOVQ         SI, R8
	MOVQ         DI, R9
	MOVQ         CX, R10

source:
	VBROADCASTSS 0(R8), Z8
	VBROADCASTSS 4(R8), Z9
	VBROADCASTSS 8(R8), Z10
	VBROADCASTSS 12(R8), Z11
	VSUBPS       Z8, Z0, Z12
	VSUBPS       Z9, Z2, Z13
	VSUBPS       Z10, Z4, Z14
	VMULPS       Z12, Z12, Z12
	VFMADD231PS  Z13, Z13, Z12
	VFMADD231PS  Z14, Z14, Z12
	VCMPPS       $0x1d, Z17, Z12, K1
	VMAXPS       Z17, Z12, Z12
	VRSQRT14PS   Z12, Z13
	VMULPS       Z13, Z12, Z14
	VFNMADD213PS Z16, Z13, Z14
	VMULPS       Z14, Z13, Z13
	VMULPS       Z18, Z12, Z12
	VMULPS       Z13, Z12, Z12
	VMAXPS       Z15, Z12, Z12
	VMULPS       Z27, Z12, Z14
	VRNDSCALEPS  $0, Z14, Z14
	VFNMADD231PS Z28, Z14, Z12
	VFNMADD231PS Z29, Z14, Z12
	VMOVAPS      Z30, Z19
	VFMADD213PS.BCST yuk32c<>+Y32_C5(SB), Z12, Z19
	VFMADD213PS.BCST yuk32c<>+Y32_C4(SB), Z12, Z19
	VFMADD213PS.BCST yuk32c<>+Y32_C3(SB), Z12, Z19
	VFMADD213PS.BCST yuk32c<>+Y32_C2(SB), Z12, Z19
	VFMADD213PS.BCST yuk32c<>+Y32_C1(SB), Z12, Z19
	VFMADD213PS.BCST yuk32c<>+Y32_C0(SB), Z12, Z19
	VSCALEFPS    Z14, Z19, Z19
	VMULPS       Z13, Z19, Z19
	VFMADD231PS  Z19, Z11, K1, Z6
	VSUBPS       Z8, Z1, Z20
	VSUBPS       Z9, Z3, Z21
	VSUBPS       Z10, Z5, Z22
	VMULPS       Z20, Z20, Z20
	VFMADD231PS  Z21, Z21, Z20
	VFMADD231PS  Z22, Z22, Z20
	VCMPPS       $0x1d, Z17, Z20, K2
	VMAXPS       Z17, Z20, Z20
	VRSQRT14PS   Z20, Z21
	VMULPS       Z21, Z20, Z22
	VFNMADD213PS Z16, Z21, Z22
	VMULPS       Z22, Z21, Z21
	VMULPS       Z18, Z20, Z20
	VMULPS       Z21, Z20, Z20
	VMAXPS       Z15, Z20, Z20
	VMULPS       Z27, Z20, Z22
	VRNDSCALEPS  $0, Z22, Z22
	VFNMADD231PS Z28, Z22, Z20
	VFNMADD231PS Z29, Z22, Z20
	VMOVAPS      Z30, Z23
	VFMADD213PS.BCST yuk32c<>+Y32_C5(SB), Z20, Z23
	VFMADD213PS.BCST yuk32c<>+Y32_C4(SB), Z20, Z23
	VFMADD213PS.BCST yuk32c<>+Y32_C3(SB), Z20, Z23
	VFMADD213PS.BCST yuk32c<>+Y32_C2(SB), Z20, Z23
	VFMADD213PS.BCST yuk32c<>+Y32_C1(SB), Z20, Z23
	VFMADD213PS.BCST yuk32c<>+Y32_C0(SB), Z20, Z23
	VSCALEFPS    Z22, Z23, Z23
	VMULPS       Z21, Z23, Z23
	VFMADD231PS  Z23, Z11, K2, Z7
	KANDW        K1, K2, K3
	KORTESTW     K3, K3
	JCC          close // a lane below r2Min

next:
	ADDQ         $16, R8
	ADDQ         $24, R9
	DECQ         R10
	JNZ          source
	VMOVUPS      Z6, BLK_PART(BX)
	VMOVUPS      Z7, BLK_PART+64(BX)
	ADDQ         $128, BX
	ADDQ         $256, R12
	DECQ         DX
	JNZ          group

done:
	VZEROUPPER
	RET

close:
	VBROADCASTSD 0(R9), Z24
	VBROADCASTSD 8(R9), Z25
	VBROADCASTSD 16(R9), Z26
	VCMPPD       $0, BLK_X+0(R12), Z24, K3
	VCMPPD       $0, BLK_Y+0(R12), Z25, K3, K3
	VCMPPD       $0, BLK_Z+0(R12), Z26, K3, K3
	VCMPPD       $0, BLK_X+64(R12), Z24, K4
	VCMPPD       $0, BLK_Y+64(R12), Z25, K4, K4
	VCMPPD       $0, BLK_Z+64(R12), Z26, K4, K4
	KUNPCKBW     K3, K4, K3
	KORW         K1, K3, K1
	VCMPPD       $0, BLK_X+128(R12), Z24, K4
	VCMPPD       $0, BLK_Y+128(R12), Z25, K4, K4
	VCMPPD       $0, BLK_Z+128(R12), Z26, K4, K4
	VCMPPD       $0, BLK_X+192(R12), Z24, K5
	VCMPPD       $0, BLK_Y+192(R12), Z25, K5, K5
	VCMPPD       $0, BLK_Z+192(R12), Z26, K5, K5
	KUNPCKBW     K4, K5, K4
	KORW         K2, K4, K2
	KANDW        K1, K2, K3
	KORTESTW     K3, K3
	JCS          next
	MOVQ         $1, ret+64(FP)
	VZEROUPPER
	RET

// func yukawaPairs32AVX2(lam float32, ns []src32, src []geom.Point, blk *pairBlock) int
TEXT ·yukawaPairs32AVX2(SB), NOSPLIT, $0-72
	MOVQ         ns_base+8(FP), SI
	MOVQ         ns_len+16(FP), CX
	MOVQ         src_base+32(FP), DI
	MOVQ         blk+56(FP), BX
	MOVQ         $0, ret+64(FP)
	MOVQ         (BX), DX
	ADDQ         $15, DX
	SHRQ         $4, DX // groups of 16 targets
	JZ           done
	TESTQ        CX, CX
	JZ           done
	MOVQ         BX, R12 // the group's float64 coordinates, 128 bytes a group
	VBROADCASTSS lam+0(FP), Y15
	VMULPS       yuk32c<>+Y32_NHALF(SB), Y15, Y15

group:
	VMOVUPS      BLK_X32(BX), Y0
	VMOVUPS      BLK_X32+32(BX), Y1
	VMOVUPS      BLK_Y32(BX), Y2
	VMOVUPS      BLK_Y32+32(BX), Y3
	VMOVUPS      BLK_Z32(BX), Y4
	VMOVUPS      BLK_Z32+32(BX), Y5
	VXORPS       Y6, Y6, Y6
	VXORPS       Y7, Y7, Y7
	MOVQ         SI, R8
	MOVQ         DI, R9
	MOVQ         CX, R10

source:
	VBROADCASTSS 0(R8), Y8
	VBROADCASTSS 4(R8), Y9
	VBROADCASTSS 8(R8), Y10
	VSUBPS       Y8, Y0, Y8
	VSUBPS       Y9, Y2, Y9
	VSUBPS       Y10, Y4, Y10
	VMULPS       Y8, Y8, Y8
	VFMADD231PS  Y9, Y9, Y8
	VFMADD231PS  Y10, Y10, Y8
	VCMPPS       $0x1d, pair32c<>+32(SB), Y8, Y14
	VMOVMSKPS    Y14, AX
	VRSQRTPS     Y8, Y9
	VMULPS       Y9, Y8, Y10
	VFNMADD213PS pair32c<>+0(SB), Y9, Y10
	VMULPS       Y10, Y9, Y9
	VMULPS       Y15, Y8, Y8
	VMULPS       Y9, Y8, Y8
	VCMPPS       $0x1e, yuk32c<>+Y32_TMIN(SB), Y8, Y10
	VANDPS       Y10, Y14, Y14
	VMOVUPS      yuk32c<>+Y32_MAGIC(SB), Y11
	VFMADD231PS  yuk32c<>+Y32_LOG2E(SB), Y8, Y11
	VSUBPS       yuk32c<>+Y32_MAGIC(SB), Y11, Y12
	VFNMADD231PS yuk32c<>+Y32_LN2HI(SB), Y12, Y8
	VFNMADD231PS yuk32c<>+Y32_LN2LO(SB), Y12, Y8
	VMOVUPS      yuk32c<>+Y32_C6(SB), Y12
	VFMADD213PS  yuk32c<>+Y32_C5(SB), Y8, Y12
	VFMADD213PS  yuk32c<>+Y32_C4(SB), Y8, Y12
	VFMADD213PS  yuk32c<>+Y32_C3(SB), Y8, Y12
	VFMADD213PS  yuk32c<>+Y32_C2(SB), Y8, Y12
	VFMADD213PS  yuk32c<>+Y32_C1(SB), Y8, Y12
	VFMADD213PS  yuk32c<>+Y32_C0(SB), Y8, Y12
	VPSLLD       $23, Y11, Y11
	VPADDD       Y11, Y12, Y12
	VMULPS       Y9, Y12, Y12
	VANDPS       Y14, Y12, Y12
	VBROADCASTSS 12(R8), Y13
	VFMADD231PS  Y12, Y13, Y6
	MOVL         AX, R11
	VBROADCASTSS 0(R8), Y8
	VBROADCASTSS 4(R8), Y9
	VBROADCASTSS 8(R8), Y10
	VSUBPS       Y8, Y1, Y8
	VSUBPS       Y9, Y3, Y9
	VSUBPS       Y10, Y5, Y10
	VMULPS       Y8, Y8, Y8
	VFMADD231PS  Y9, Y9, Y8
	VFMADD231PS  Y10, Y10, Y8
	VCMPPS       $0x1d, pair32c<>+32(SB), Y8, Y14
	VMOVMSKPS    Y14, AX
	VRSQRTPS     Y8, Y9
	VMULPS       Y9, Y8, Y10
	VFNMADD213PS pair32c<>+0(SB), Y9, Y10
	VMULPS       Y10, Y9, Y9
	VMULPS       Y15, Y8, Y8
	VMULPS       Y9, Y8, Y8
	VCMPPS       $0x1e, yuk32c<>+Y32_TMIN(SB), Y8, Y10
	VANDPS       Y10, Y14, Y14
	VMOVUPS      yuk32c<>+Y32_MAGIC(SB), Y11
	VFMADD231PS  yuk32c<>+Y32_LOG2E(SB), Y8, Y11
	VSUBPS       yuk32c<>+Y32_MAGIC(SB), Y11, Y12
	VFNMADD231PS yuk32c<>+Y32_LN2HI(SB), Y12, Y8
	VFNMADD231PS yuk32c<>+Y32_LN2LO(SB), Y12, Y8
	VMOVUPS      yuk32c<>+Y32_C6(SB), Y12
	VFMADD213PS  yuk32c<>+Y32_C5(SB), Y8, Y12
	VFMADD213PS  yuk32c<>+Y32_C4(SB), Y8, Y12
	VFMADD213PS  yuk32c<>+Y32_C3(SB), Y8, Y12
	VFMADD213PS  yuk32c<>+Y32_C2(SB), Y8, Y12
	VFMADD213PS  yuk32c<>+Y32_C1(SB), Y8, Y12
	VFMADD213PS  yuk32c<>+Y32_C0(SB), Y8, Y12
	VPSLLD       $23, Y11, Y11
	VPADDD       Y11, Y12, Y12
	VMULPS       Y9, Y12, Y12
	VANDPS       Y14, Y12, Y12
	VBROADCASTSS 12(R8), Y13
	VFMADD231PS  Y12, Y13, Y7
	SHLL         $8, AX
	ORL          AX, R11 // the 16 lanes' range mask
	CMPL         R11, $0xffff
	JNE          close

next:
	ADDQ         $16, R8
	ADDQ         $24, R9
	DECQ         R10
	JNZ          source
	VMOVUPS      Y6, BLK_PART(BX)
	VMOVUPS      Y7, BLK_PART+32(BX)
	ADDQ         $64, BX
	ADDQ         $128, R12
	DECQ         DX
	JNZ          group

done:
	VZEROUPPER
	RET

close:
	VBROADCASTSD 0(R9), Y12
	VBROADCASTSD 8(R9), Y13
	VBROADCASTSD 16(R9), Y14
	VCMPPD       $0, BLK_X+0(R12), Y12, Y8
	VCMPPD       $0, BLK_Y+0(R12), Y13, Y9
	VCMPPD       $0, BLK_Z+0(R12), Y14, Y10
	VANDPD       Y9, Y8, Y8
	VANDPD       Y10, Y8, Y8
	VMOVMSKPD    Y8, AX
	SHLL         $0, AX
	ORL          AX, R11
	VCMPPD       $0, BLK_X+32(R12), Y12, Y8
	VCMPPD       $0, BLK_Y+32(R12), Y13, Y9
	VCMPPD       $0, BLK_Z+32(R12), Y14, Y10
	VANDPD       Y9, Y8, Y8
	VANDPD       Y10, Y8, Y8
	VMOVMSKPD    Y8, AX
	SHLL         $4, AX
	ORL          AX, R11
	VCMPPD       $0, BLK_X+64(R12), Y12, Y8
	VCMPPD       $0, BLK_Y+64(R12), Y13, Y9
	VCMPPD       $0, BLK_Z+64(R12), Y14, Y10
	VANDPD       Y9, Y8, Y8
	VANDPD       Y10, Y8, Y8
	VMOVMSKPD    Y8, AX
	SHLL         $8, AX
	ORL          AX, R11
	VCMPPD       $0, BLK_X+96(R12), Y12, Y8
	VCMPPD       $0, BLK_Y+96(R12), Y13, Y9
	VCMPPD       $0, BLK_Z+96(R12), Y14, Y10
	VANDPD       Y9, Y8, Y8
	VANDPD       Y10, Y8, Y8
	VMOVMSKPD    Y8, AX
	SHLL         $12, AX
	ORL          AX, R11
	CMPL         R11, $0xffff
	JEQ          next
	MOVQ         $1, ret+64(FP)
	VZEROUPPER
	RET

// func yukawaPairsAVX512(lambda float64, src []geom.Point, q []float64, blk *pairBlock)
TEXT ·yukawaPairsAVX512(SB), NOSPLIT, $0-64
	MOVQ         src_base+8(FP), SI
	MOVQ         src_len+16(FP), CX
	MOVQ         q_base+32(FP), DI
	MOVQ         blk+56(FP), BX
	MOVQ         (BX), DX
	ADDQ         $15, DX
	SHRQ         $4, DX // groups of 16 targets
	JZ           done
	TESTQ        CX, CX
	JZ           done
	VPXORQ       Z15, Z15, Z15
	VBROADCASTSD pairconst<>+8(SB), Z18
	VBROADCASTSD lambda+0(FP), Z16
	VSUBPD       Z16, Z15, Z16 // -λ
	VBROADCASTSD yukconst<>+YK_C0(SB), Z17

group:
	VMOVUPD      BLK_X(BX), Z0
	VMOVUPD      BLK_X+64(BX), Z1
	VMOVUPD      BLK_Y(BX), Z2
	VMOVUPD      BLK_Y+64(BX), Z3
	VMOVUPD      BLK_Z(BX), Z4
	VMOVUPD      BLK_Z+64(BX), Z5
	VMOVUPD      BLK_ACC(BX), Z6
	VMOVUPD      BLK_ACC+64(BX), Z7
	MOVQ         SI, R8
	MOVQ         DI, R9
	MOVQ         CX, R10

source:
	VBROADCASTSD 0(R8), Z8
	VBROADCASTSD 8(R8), Z9
	VBROADCASTSD 16(R8), Z10
	VBROADCASTSD (R9), Z11
	VSUBPD       Z8, Z0, Z12
	VSUBPD       Z9, Z2, Z13
	VSUBPD       Z10, Z4, Z14
	VMULPD       Z12, Z12, Z12
	VMULPD       Z13, Z13, Z13
	VMULPD       Z14, Z14, Z14
	VADDPD       Z13, Z12, Z12
	VADDPD       Z14, Z12, Z12
	VCMPPD       $4, Z15, Z12, K1
	VCMPPD       $0x19, Z18, Z12, K1, K1
	VSQRTPD      Z12, Z12
	VRCP14PD     Z12, Z13
	VMOVAPD      Z17, Z14
	VFNMADD231PD Z13, Z12, Z14
	VFMADD231PD  Z14, Z13, Z13
	VMOVAPD      Z17, Z14
	VFNMADD231PD Z13, Z12, Z14
	VFMADD231PD  Z14, Z13, Z13
	VMULPD       Z16, Z12, Z12
	VMAXPD.BCST  yukconst<>+YK_CLAMP(SB), Z12, Z12
	VMULPD.BCST  yukconst<>+YK_LOG2E(SB), Z12, Z14
	VRNDSCALEPD  $0, Z14, Z14
	VFNMADD231PD.BCST yukconst<>+YK_LN2HI(SB), Z14, Z12
	VFNMADD231PD.BCST yukconst<>+YK_LN2LO(SB), Z14, Z12
	VBROADCASTSD yukconst<>+YK_C13(SB), Z19
	VFMADD213PD.BCST yukconst<>+YK_C12(SB), Z12, Z19
	VFMADD213PD.BCST yukconst<>+YK_C11(SB), Z12, Z19
	VFMADD213PD.BCST yukconst<>+YK_C10(SB), Z12, Z19
	VFMADD213PD.BCST yukconst<>+YK_C9(SB), Z12, Z19
	VFMADD213PD.BCST yukconst<>+YK_C8(SB), Z12, Z19
	VFMADD213PD.BCST yukconst<>+YK_C7(SB), Z12, Z19
	VFMADD213PD.BCST yukconst<>+YK_C6(SB), Z12, Z19
	VFMADD213PD.BCST yukconst<>+YK_C5(SB), Z12, Z19
	VFMADD213PD.BCST yukconst<>+YK_C4(SB), Z12, Z19
	VFMADD213PD.BCST yukconst<>+YK_C3(SB), Z12, Z19
	VFMADD213PD.BCST yukconst<>+YK_C2(SB), Z12, Z19
	VFMADD213PD.BCST yukconst<>+YK_C1(SB), Z12, Z19
	VFMADD213PD.BCST yukconst<>+YK_C0(SB), Z12, Z19
	VSCALEFPD    Z14, Z19, Z19
	VMULPD       Z13, Z19, Z19
	VFMADD231PD  Z19, Z11, K1, Z6
	VSUBPD       Z8, Z1, Z20
	VSUBPD       Z9, Z3, Z21
	VSUBPD       Z10, Z5, Z22
	VMULPD       Z20, Z20, Z20
	VMULPD       Z21, Z21, Z21
	VMULPD       Z22, Z22, Z22
	VADDPD       Z21, Z20, Z20
	VADDPD       Z22, Z20, Z20
	VCMPPD       $4, Z15, Z20, K2
	VCMPPD       $0x19, Z18, Z20, K2, K2
	VSQRTPD      Z20, Z20
	VRCP14PD     Z20, Z21
	VMOVAPD      Z17, Z22
	VFNMADD231PD Z21, Z20, Z22
	VFMADD231PD  Z22, Z21, Z21
	VMOVAPD      Z17, Z22
	VFNMADD231PD Z21, Z20, Z22
	VFMADD231PD  Z22, Z21, Z21
	VMULPD       Z16, Z20, Z20
	VMAXPD.BCST  yukconst<>+YK_CLAMP(SB), Z20, Z20
	VMULPD.BCST  yukconst<>+YK_LOG2E(SB), Z20, Z22
	VRNDSCALEPD  $0, Z22, Z22
	VFNMADD231PD.BCST yukconst<>+YK_LN2HI(SB), Z22, Z20
	VFNMADD231PD.BCST yukconst<>+YK_LN2LO(SB), Z22, Z20
	VBROADCASTSD yukconst<>+YK_C13(SB), Z23
	VFMADD213PD.BCST yukconst<>+YK_C12(SB), Z20, Z23
	VFMADD213PD.BCST yukconst<>+YK_C11(SB), Z20, Z23
	VFMADD213PD.BCST yukconst<>+YK_C10(SB), Z20, Z23
	VFMADD213PD.BCST yukconst<>+YK_C9(SB), Z20, Z23
	VFMADD213PD.BCST yukconst<>+YK_C8(SB), Z20, Z23
	VFMADD213PD.BCST yukconst<>+YK_C7(SB), Z20, Z23
	VFMADD213PD.BCST yukconst<>+YK_C6(SB), Z20, Z23
	VFMADD213PD.BCST yukconst<>+YK_C5(SB), Z20, Z23
	VFMADD213PD.BCST yukconst<>+YK_C4(SB), Z20, Z23
	VFMADD213PD.BCST yukconst<>+YK_C3(SB), Z20, Z23
	VFMADD213PD.BCST yukconst<>+YK_C2(SB), Z20, Z23
	VFMADD213PD.BCST yukconst<>+YK_C1(SB), Z20, Z23
	VFMADD213PD.BCST yukconst<>+YK_C0(SB), Z20, Z23
	VSCALEFPD    Z22, Z23, Z23
	VMULPD       Z21, Z23, Z23
	VFMADD231PD  Z23, Z11, K2, Z7
	ADDQ         $24, R8
	ADDQ         $8, R9
	DECQ         R10
	JNZ          source
	VMOVUPD      Z6, BLK_ACC(BX)
	VMOVUPD      Z7, BLK_ACC+64(BX)
	ADDQ         $128, BX
	DECQ         DX
	JNZ          group

done:
	VZEROUPPER
	RET

// func yukawaPairsAVX2(lambda float64, src []geom.Point, q []float64, blk *pairBlock)
TEXT ·yukawaPairsAVX2(SB), NOSPLIT, $0-64
	MOVQ         src_base+8(FP), SI
	MOVQ         src_len+16(FP), CX
	MOVQ         q_base+32(FP), DI
	MOVQ         blk+56(FP), BX
	MOVQ         (BX), DX
	ADDQ         $7, DX
	SHRQ         $3, DX // groups of 8 targets
	JZ           done
	TESTQ        CX, CX
	JZ           done
	VBROADCASTSD lambda+0(FP), Y15
	VXORPD       Y14, Y14, Y14
	VSUBPD       Y15, Y14, Y15 // -λ

group:
	VMOVUPD      BLK_X(BX), Y0
	VMOVUPD      BLK_X+32(BX), Y1
	VMOVUPD      BLK_Y(BX), Y2
	VMOVUPD      BLK_Y+32(BX), Y3
	VMOVUPD      BLK_Z(BX), Y4
	VMOVUPD      BLK_Z+32(BX), Y5
	VMOVUPD      BLK_ACC(BX), Y6
	VMOVUPD      BLK_ACC+32(BX), Y7
	MOVQ         SI, R8
	MOVQ         DI, R9
	MOVQ         CX, R10

source:
	VBROADCASTSD 0(R8), Y8
	VBROADCASTSD 8(R8), Y9
	VBROADCASTSD 16(R8), Y10
	VSUBPD       Y8, Y0, Y8
	VSUBPD       Y9, Y2, Y9
	VSUBPD       Y10, Y4, Y10
	VMULPD       Y8, Y8, Y8
	VMULPD       Y9, Y9, Y9
	VMULPD       Y10, Y10, Y10
	VADDPD       Y9, Y8, Y8
	VADDPD       Y10, Y8, Y8
	VXORPD       Y14, Y14, Y14
	VCMPPD       $4, Y14, Y8, Y14
	VSQRTPD      Y8, Y8
	VMULPD       Y15, Y8, Y9
	VMAXPD       yukconst<>+YK_CLAMP(SB), Y9, Y9
	VMULPD       yukconst<>+YK_LOG2E(SB), Y9, Y10
	VROUNDPD     $0, Y10, Y10
	VFNMADD231PD yukconst<>+YK_LN2HI(SB), Y10, Y9
	VFNMADD231PD yukconst<>+YK_LN2LO(SB), Y10, Y9
	VMOVUPD      yukconst<>+YK_C13(SB), Y11
	VFMADD213PD  yukconst<>+YK_C12(SB), Y9, Y11
	VFMADD213PD  yukconst<>+YK_C11(SB), Y9, Y11
	VFMADD213PD  yukconst<>+YK_C10(SB), Y9, Y11
	VFMADD213PD  yukconst<>+YK_C9(SB), Y9, Y11
	VFMADD213PD  yukconst<>+YK_C8(SB), Y9, Y11
	VFMADD213PD  yukconst<>+YK_C7(SB), Y9, Y11
	VFMADD213PD  yukconst<>+YK_C6(SB), Y9, Y11
	VFMADD213PD  yukconst<>+YK_C5(SB), Y9, Y11
	VFMADD213PD  yukconst<>+YK_C4(SB), Y9, Y11
	VFMADD213PD  yukconst<>+YK_C3(SB), Y9, Y11
	VFMADD213PD  yukconst<>+YK_C2(SB), Y9, Y11
	VFMADD213PD  yukconst<>+YK_C1(SB), Y9, Y11
	VFMADD213PD  yukconst<>+YK_C0(SB), Y9, Y11
	VMULPD       yukconst<>+YK_C2(SB), Y10, Y12
	VROUNDPD     $1, Y12, Y12
	VSUBPD       Y12, Y10, Y10
	VADDPD       yukconst<>+YK_MAGIC(SB), Y12, Y12
	VADDPD       yukconst<>+YK_MAGIC(SB), Y10, Y10
	VPSLLQ       $52, Y12, Y12
	VPSLLQ       $52, Y10, Y10
	VMULPD       Y12, Y11, Y11
	VMULPD       Y10, Y11, Y11
	VBROADCASTSD (R9), Y12
	VMULPD       Y12, Y11, Y11
	VDIVPD       Y8, Y11, Y11
	VANDPD       Y14, Y11, Y11
	VADDPD       Y11, Y6, Y6
	VBROADCASTSD 0(R8), Y8
	VBROADCASTSD 8(R8), Y9
	VBROADCASTSD 16(R8), Y10
	VSUBPD       Y8, Y1, Y8
	VSUBPD       Y9, Y3, Y9
	VSUBPD       Y10, Y5, Y10
	VMULPD       Y8, Y8, Y8
	VMULPD       Y9, Y9, Y9
	VMULPD       Y10, Y10, Y10
	VADDPD       Y9, Y8, Y8
	VADDPD       Y10, Y8, Y8
	VXORPD       Y14, Y14, Y14
	VCMPPD       $4, Y14, Y8, Y14
	VSQRTPD      Y8, Y8
	VMULPD       Y15, Y8, Y9
	VMAXPD       yukconst<>+YK_CLAMP(SB), Y9, Y9
	VMULPD       yukconst<>+YK_LOG2E(SB), Y9, Y10
	VROUNDPD     $0, Y10, Y10
	VFNMADD231PD yukconst<>+YK_LN2HI(SB), Y10, Y9
	VFNMADD231PD yukconst<>+YK_LN2LO(SB), Y10, Y9
	VMOVUPD      yukconst<>+YK_C13(SB), Y11
	VFMADD213PD  yukconst<>+YK_C12(SB), Y9, Y11
	VFMADD213PD  yukconst<>+YK_C11(SB), Y9, Y11
	VFMADD213PD  yukconst<>+YK_C10(SB), Y9, Y11
	VFMADD213PD  yukconst<>+YK_C9(SB), Y9, Y11
	VFMADD213PD  yukconst<>+YK_C8(SB), Y9, Y11
	VFMADD213PD  yukconst<>+YK_C7(SB), Y9, Y11
	VFMADD213PD  yukconst<>+YK_C6(SB), Y9, Y11
	VFMADD213PD  yukconst<>+YK_C5(SB), Y9, Y11
	VFMADD213PD  yukconst<>+YK_C4(SB), Y9, Y11
	VFMADD213PD  yukconst<>+YK_C3(SB), Y9, Y11
	VFMADD213PD  yukconst<>+YK_C2(SB), Y9, Y11
	VFMADD213PD  yukconst<>+YK_C1(SB), Y9, Y11
	VFMADD213PD  yukconst<>+YK_C0(SB), Y9, Y11
	VMULPD       yukconst<>+YK_C2(SB), Y10, Y12
	VROUNDPD     $1, Y12, Y12
	VSUBPD       Y12, Y10, Y10
	VADDPD       yukconst<>+YK_MAGIC(SB), Y12, Y12
	VADDPD       yukconst<>+YK_MAGIC(SB), Y10, Y10
	VPSLLQ       $52, Y12, Y12
	VPSLLQ       $52, Y10, Y10
	VMULPD       Y12, Y11, Y11
	VMULPD       Y10, Y11, Y11
	VBROADCASTSD (R9), Y12
	VMULPD       Y12, Y11, Y11
	VDIVPD       Y8, Y11, Y11
	VANDPD       Y14, Y11, Y11
	VADDPD       Y11, Y7, Y7
	ADDQ         $24, R8
	ADDQ         $8, R9
	DECQ         R10
	JNZ          source
	VMOVUPD      Y6, BLK_ACC(BX)
	VMOVUPD      Y7, BLK_ACC+32(BX)
	ADDQ         $64, BX
	DECQ         DX
	JNZ          group

done:
	VZEROUPPER
	RET
