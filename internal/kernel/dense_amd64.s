//go:build !purego

#include "textflag.h"

// The vector dense kernels (dense.go states the contract and the panel
// layout). A table is a real matrix stored as panels of 16 rows, each
// column of a panel contiguous, so a column of a panel is two AVX-512
// registers (four AVX2 ones) of rows that every right-hand side's one real
// input x_c multiplies: a broadcast and an FMA per register, no shuffles,
// and each output row's sum stays in its own lane to the end, no horizontal
// reductions. The AVX-512 tile holds 16 or 32 rows (one panel or a pair) of
// four right-hand sides, the AVX2 one 8, so each panel load feeds four
// FMAs; the GEMV walks two whole panels at a time, a panel left over alone.
// A panel shorter than 16 rows — the last, when 2·rows is not a multiple
// of 16 — is read and written under a lane mask (K1/K2, Y12–Y15 on AVX2),
// so nothing outside the slices is read.

// PANEL512 sets CX to the rows of the panel at hand, min(16, R8), BX to its
// column stride in bytes, and K1 and K2 to the lanes of its upper and lower
// eight rows. AX is scratch.
#define PANEL512 \
	MOVQ    $16, CX \
	CMPQ    R8, CX \
	CMOVQLT R8, CX \
	MOVQ    CX, BX \
	SHLQ    $3, BX \
	MOVL    $1, AX \
	SHLL    CX, AX \
	DECL    AX \
	KMOVW   AX, K1 \
	SHRL    $8, AX \
	KMOVW   AX, K2

// ZERO8 clears the eight accumulators by the xor XOR.
#define ZERO8(XOR, A0, A1, A2, A3, A4, A5, A6, A7) \
	XOR A0, A0, A0 \
	XOR A1, A1, A1 \
	XOR A2, A2, A2 \
	XOR A3, A3, A3 \
	XOR A4, A4, A4 \
	XOR A5, A5, A5 \
	XOR A6, A6, A6 \
	XOR A7, A7, A7

// ACC512 adds the rows LO, HI of right-hand side r at byte offsets o0 and
// o1 of its output (the pointer at r(R13)) under K1 and K2; ADD512 adds
// them at 0 and 64, whole.
#define ACC512(r, o0, o1, LO, HI) \
	MOVQ      r(R13), CX \
	VMOVUPD.Z o0(CX), K1, Z8 \
	VADDPD    Z8, LO, LO \
	VMOVUPD   LO, K1, o0(CX) \
	VMOVUPD.Z o1(CX), K2, Z9 \
	VADDPD    Z9, HI, HI \
	VMOVUPD   HI, K2, o1(CX)

#define ADD512(r, LO, HI) \
	MOVQ    r(R13), CX \
	VADDPD  (CX), LO, LO \
	VMOVUPD LO, (CX) \
	VADDPD  64(CX), HI, HI \
	VMOVUPD HI, 64(CX)

// func denseTileAVX512(a, b *float64, pf uintptr, h, k int, xs, ys *[4]*float64)
//
// ys[t][:h] += A xs[t][:k] for the four right-hand sides and h ≤ 32 rows:
// one panel at a, or a whole one at a and the next at b. A pair walks
// both panels' columns together, so each broadcast feeds four FMAs; its
// second panel is read and written under K1/K2, into Z14–Z21. Each column
// also prefetches the next 64 bytes from pf (R14) into L2. SI (and DI)
// walk the panels column by column, AX is the input offset, DX its end,
// R9–R12 the inputs, R13 the outputs.
TEXT ·denseTileAVX512(SB), NOSPLIT, $0-56
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ pf+16(FP), R14
	MOVQ h+24(FP), R8
	MOVQ k+32(FP), DX
	SHLQ $3, DX
	MOVQ xs+40(FP), AX
	MOVQ 0(AX), R9
	MOVQ 8(AX), R10
	MOVQ 16(AX), R11
	MOVQ 24(AX), R12
	MOVQ ys+48(FP), R13
	ZERO8(VPXORQ, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7)
	CMPQ R8, $16
	JLE  tsingle512
	SUBQ $16, R8
	PANEL512
	ZERO8(VPXORQ, Z14, Z15, Z16, Z17, Z18, Z19, Z20, Z21)
	XORQ AX, AX

tpair512:
	VMOVUPD      (SI), Z8
	VMOVUPD      64(SI), Z9
	VMOVUPD.Z    (DI), K1, Z22
	VMOVUPD.Z    64(DI), K2, Z23
	VBROADCASTSD (R9)(AX*1), Z10
	VFMADD231PD  Z8, Z10, Z0
	VFMADD231PD  Z9, Z10, Z1
	VFMADD231PD  Z22, Z10, Z14
	VFMADD231PD  Z23, Z10, Z15
	VBROADCASTSD (R10)(AX*1), Z11
	VFMADD231PD  Z8, Z11, Z2
	VFMADD231PD  Z9, Z11, Z3
	VFMADD231PD  Z22, Z11, Z16
	VFMADD231PD  Z23, Z11, Z17
	VBROADCASTSD (R11)(AX*1), Z12
	VFMADD231PD  Z8, Z12, Z4
	VFMADD231PD  Z9, Z12, Z5
	VFMADD231PD  Z22, Z12, Z18
	VFMADD231PD  Z23, Z12, Z19
	VBROADCASTSD (R12)(AX*1), Z13
	VFMADD231PD  Z8, Z13, Z6
	VFMADD231PD  Z9, Z13, Z7
	VFMADD231PD  Z22, Z13, Z20
	VFMADD231PD  Z23, Z13, Z21
	PREFETCHT1   (R14)
	ADDQ $64, R14
	ADDQ $128, SI
	ADDQ BX, DI
	ADDQ $8, AX
	CMPQ AX, DX
	JLT  tpair512

	ADD512(0, Z0, Z1)
	ACC512(0, 128, 192, Z14, Z15)
	ADD512(8, Z2, Z3)
	ACC512(8, 128, 192, Z16, Z17)
	ADD512(16, Z4, Z5)
	ACC512(16, 128, 192, Z18, Z19)
	ADD512(24, Z6, Z7)
	ACC512(24, 128, 192, Z20, Z21)
	VZEROUPPER
	RET

tsingle512:
	PANEL512
	XORQ AX, AX

tcol512:
	VMOVUPD.Z    (SI), K1, Z8
	VMOVUPD.Z    64(SI), K2, Z9
	VBROADCASTSD (R9)(AX*1), Z10
	VFMADD231PD  Z8, Z10, Z0
	VFMADD231PD  Z9, Z10, Z1
	VBROADCASTSD (R10)(AX*1), Z11
	VFMADD231PD  Z8, Z11, Z2
	VFMADD231PD  Z9, Z11, Z3
	VBROADCASTSD (R11)(AX*1), Z12
	VFMADD231PD  Z8, Z12, Z4
	VFMADD231PD  Z9, Z12, Z5
	VBROADCASTSD (R12)(AX*1), Z13
	VFMADD231PD  Z8, Z13, Z6
	VFMADD231PD  Z9, Z13, Z7
	PREFETCHT1 (R14)
	ADDQ $64, R14
	ADDQ BX, SI
	ADDQ $8, AX
	CMPQ AX, DX
	JLT  tcol512

	ACC512(0, 0, 64, Z0, Z1)
	ACC512(8, 0, 64, Z2, Z3)
	ACC512(16, 0, 64, Z4, Z5)
	ACC512(24, 0, 64, Z6, Z7)
	VZEROUPPER
	RET

// func denseGemvAVX512(a *float64, m, k int, x, y *float64)
//
// y[:m] += A x[:k]. Two whole panels run together (gdual512); a panel left
// over runs alone under K1/K2, four columns per step, column c+t at SI +
// t·BX (R11 is 3·BX) into Z(2t) and Z(2t+1), the last k mod 4 one at a
// time into Z0 and Z1. R9 is x, DI the outputs, R10 the bytes of whole
// four-column steps.
TEXT ·denseGemvAVX512(SB), NOSPLIT, $0-40
	MOVQ a+0(FP), SI
	MOVQ m+8(FP), R8
	MOVQ k+16(FP), DX
	MOVQ x+24(FP), R9
	MOVQ y+32(FP), DI
	MOVQ DX, R10
	ANDQ $-4, R10
	SHLQ $3, R10
	SHLQ $3, DX

gpanel512:
	CMPQ R8, $32
	JGE  gdual512
	PANEL512
	LEAQ (BX)(BX*2), R11
	ZERO8(VPXORQ, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7)
	XORQ AX, AX
	CMPQ AX, R10
	JGE  gcol512

gquad512:
	VBROADCASTSD (R9)(AX*1), Z8
	VBROADCASTSD 8(R9)(AX*1), Z9
	VBROADCASTSD 16(R9)(AX*1), Z10
	VBROADCASTSD 24(R9)(AX*1), Z11
	VFMADD231PD  (SI), Z8, K1, Z0
	VFMADD231PD  64(SI), Z8, K2, Z1
	VFMADD231PD  (SI)(BX*1), Z9, K1, Z2
	VFMADD231PD  64(SI)(BX*1), Z9, K2, Z3
	VFMADD231PD  (SI)(BX*2), Z10, K1, Z4
	VFMADD231PD  64(SI)(BX*2), Z10, K2, Z5
	VFMADD231PD  (SI)(R11*1), Z11, K1, Z6
	VFMADD231PD  64(SI)(R11*1), Z11, K2, Z7
	LEAQ (SI)(BX*4), SI
	ADDQ $32, AX
	CMPQ AX, R10
	JLT  gquad512

gcol512:
	CMPQ AX, DX
	JGE  gsum512
	VBROADCASTSD (R9)(AX*1), Z8
	VFMADD231PD  (SI), Z8, K1, Z0
	VFMADD231PD  64(SI), Z8, K2, Z1
	ADDQ BX, SI
	ADDQ $8, AX
	JMP  gcol512

gsum512:
	VADDPD    Z2, Z0, Z0
	VADDPD    Z6, Z4, Z4
	VADDPD    Z4, Z0, Z0
	VADDPD    Z3, Z1, Z1
	VADDPD    Z7, Z5, Z5
	VADDPD    Z5, Z1, Z1
	VMOVUPD.Z (DI), K1, Z8
	VADDPD    Z8, Z0, Z0
	VMOVUPD   Z0, K1, (DI)
	VMOVUPD.Z 64(DI), K2, Z9
	VADDPD    Z9, Z1, Z1
	VMOVUPD   Z1, K2, 64(DI)
	ADDQ $128, DI
	SUBQ $16, R8
	JGT  gpanel512
	VZEROUPPER
	RET

// Two whole panels, two columns a step: column c of the first at SI and of
// the second at R12 into Z0–Z3, column c+1 into Z4–Z7; R13 is the bytes of
// whole steps.
gdual512:
	LEAQ (SI)(DX*8), R12
	LEAQ (R12)(DX*8), R12
	MOVQ DX, R13
	ANDQ $-16, R13
	ZERO8(VPXORQ, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7)
	XORQ AX, AX
	CMPQ AX, R13
	JGE  gdone512

gdpair512:
	VBROADCASTSD (R9)(AX*1), Z8
	VBROADCASTSD 8(R9)(AX*1), Z9
	VFMADD231PD  (SI), Z8, Z0
	VFMADD231PD  64(SI), Z8, Z1
	VFMADD231PD  (R12), Z8, Z2
	VFMADD231PD  64(R12), Z8, Z3
	VFMADD231PD  128(SI), Z9, Z4
	VFMADD231PD  192(SI), Z9, Z5
	VFMADD231PD  128(R12), Z9, Z6
	VFMADD231PD  192(R12), Z9, Z7
	ADDQ $256, SI
	ADDQ $256, R12
	ADDQ $16, AX
	CMPQ AX, R13
	JLT  gdpair512

gdone512:
	CMPQ AX, DX
	JGE  gdsum512
	VBROADCASTSD (R9)(AX*1), Z8
	VFMADD231PD  (SI), Z8, Z0
	VFMADD231PD  64(SI), Z8, Z1
	VFMADD231PD  (R12), Z8, Z2
	VFMADD231PD  64(R12), Z8, Z3
	ADDQ $128, R12

gdsum512:
	VADDPD  Z4, Z0, Z0
	VADDPD  Z5, Z1, Z1
	VADDPD  Z6, Z2, Z2
	VADDPD  Z7, Z3, Z3
	VADDPD  (DI), Z0, Z0
	VMOVUPD Z0, (DI)
	VADDPD  64(DI), Z1, Z1
	VMOVUPD Z1, 64(DI)
	VADDPD  128(DI), Z2, Z2
	VMOVUPD Z2, 128(DI)
	VADDPD  192(DI), Z3, Z3
	VMOVUPD Z3, 192(DI)
	ADDQ $256, DI
	MOVQ R12, SI
	SUBQ $32, R8
	JGT  gpanel512
	VZEROUPPER
	RET

// The AVX2 tile walks a panel in halves of eight rows, Y(2t) and Y(2t+1)
// holding a half's rows 0–3 and 4–7; a whole panel loads plainly, the short
// one under the lane masks Y14 and Y15 (MASK256), half by half.

// lanes256 is the lane index 0..7, for the masks' compares.
DATA lanes256<>+0(SB)/8, $0
DATA lanes256<>+8(SB)/8, $1
DATA lanes256<>+16(SB)/8, $2
DATA lanes256<>+24(SB)/8, $3
DATA lanes256<>+32(SB)/8, $4
DATA lanes256<>+40(SB)/8, $5
DATA lanes256<>+48(SB)/8, $6
DATA lanes256<>+56(SB)/8, $7
GLOBL lanes256<>(SB), RODATA|NOPTR, $64

// MASK256 sets Y14 and Y15 to the lanes of a half's rows 0–3 and 4–7 below
// CX, the rows the half holds.
#define MASK256 \
	MOVQ         CX, X15 \
	VPBROADCASTQ X15, Y15 \
	VPCMPGTQ     lanes256<>+0(SB), Y15, Y14 \
	VPCMPGTQ     lanes256<>+32(SB), Y15, Y15

// A half-column load at byte offset off from DI, plain (LDF) or under the
// mask m (LDM); and an FMA of one from the address src into acc by the
// broadcast b through Y10 under m (FMM).
#define LDF(off, m, dst) VMOVUPD off(DI), dst
#define LDM(off, m, dst) VMASKMOVPD off(DI), m, dst
#define FMM(src, m, b, acc) \
	VMASKMOVPD  src, m, Y10 \
	VFMADD231PD Y10, b, acc

// TCOL256 is one column of the AVX2 tile: a half-column at DI by the
// inputs at offset AX of R9–R12.
#define TCOL256(LD) \
	LD(0, Y14, Y8) \
	LD(32, Y15, Y9) \
	VBROADCASTSD (R9)(AX*1), Y10 \
	VFMADD231PD  Y8, Y10, Y0 \
	VFMADD231PD  Y9, Y10, Y1 \
	VBROADCASTSD (R10)(AX*1), Y11 \
	VFMADD231PD  Y8, Y11, Y2 \
	VFMADD231PD  Y9, Y11, Y3 \
	VBROADCASTSD (R11)(AX*1), Y12 \
	VFMADD231PD  Y8, Y12, Y4 \
	VFMADD231PD  Y9, Y12, Y5 \
	VBROADCASTSD (R12)(AX*1), Y13 \
	VFMADD231PD  Y8, Y13, Y6 \
	VFMADD231PD  Y9, Y13, Y7

// OUTF and OUTM add a half's rows LO, HI of right-hand side r into its
// output (the pointer at r(R13)) at byte offset R14, plainly or under the
// masks; OUTS does all four.
#define OUTF(r, LO, HI) \
	MOVQ    r(R13), CX \
	VADDPD  (CX)(R14*1), LO, LO \
	VMOVUPD LO, (CX)(R14*1) \
	VADDPD  32(CX)(R14*1), HI, HI \
	VMOVUPD HI, 32(CX)(R14*1)

#define OUTM(r, LO, HI) \
	MOVQ       r(R13), CX \
	VMASKMOVPD (CX)(R14*1), Y14, Y8 \
	VADDPD     Y8, LO, LO \
	VMASKMOVPD LO, Y14, (CX)(R14*1) \
	VMASKMOVPD 32(CX)(R14*1), Y15, Y9 \
	VADDPD     Y9, HI, HI \
	VMASKMOVPD HI, Y15, 32(CX)(R14*1)

#define OUTS(OUT) \
	OUT(0, Y0, Y1) \
	OUT(8, Y2, Y3) \
	OUT(16, Y4, Y5) \
	OUT(24, Y6, Y7)

// func denseTileAVX2(a *float64, h, k int, xs, ys *[4]*float64)
//
// denseTileAVX512 eight rows at a time: SI the half's first column, DI the
// column walk, BX the column stride, R14 the half's output offset, R8 the
// rows left.
TEXT ·denseTileAVX2(SB), NOSPLIT, $0-40
	MOVQ a+0(FP), SI
	MOVQ h+8(FP), R8
	MOVQ k+16(FP), DX
	SHLQ $3, DX
	MOVQ xs+24(FP), AX
	MOVQ 0(AX), R9
	MOVQ 8(AX), R10
	MOVQ 16(AX), R11
	MOVQ 24(AX), R12
	MOVQ ys+32(FP), R13
	XORQ R14, R14
	MOVQ R8, BX
	SHLQ $3, BX
	CMPQ R8, $16
	JLT  tshort256

thalf256:
	MOVQ SI, DI
	ZERO8(VXORPD, Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7)
	XORQ AX, AX

tcol256:
	TCOL256(LDF)
	ADDQ BX, DI
	ADDQ $8, AX
	CMPQ AX, DX
	JLT  tcol256
	OUTS(OUTF)
	ADDQ $64, SI
	ADDQ $64, R14
	CMPQ R14, $128
	JLT  thalf256
	JMP  tdone256

tshort256:
	MOVQ    $8, CX
	CMPQ    R8, CX
	CMOVQLT R8, CX
	MASK256
	MOVQ    SI, DI
	ZERO8(VXORPD, Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7)
	XORQ    AX, AX

tscol256:
	TCOL256(LDM)
	ADDQ BX, DI
	ADDQ $8, AX
	CMPQ AX, DX
	JLT  tscol256
	OUTS(OUTM)
	ADDQ $64, SI
	ADDQ $64, R14
	SUBQ $8, R8
	JGT  tshort256

tdone256:
	VZEROUPPER
	RET

// GPAIR256 is two columns of the AVX2 GEMV's single panel: its 16 rows of
// column c at SI into Y0–Y3 and of column c+1 at SI+BX into Y4–Y7 under
// the masks Y14, Y15, Y12, Y13, by x at offset AX of R9; GONE256 is column
// c alone, for an odd k.
#define GPAIR256 \
	VBROADCASTSD (R9)(AX*1), Y8 \
	VBROADCASTSD 8(R9)(AX*1), Y9 \
	FMM((SI), Y14, Y8, Y0) \
	FMM(32(SI), Y15, Y8, Y1) \
	FMM(64(SI), Y12, Y8, Y2) \
	FMM(96(SI), Y13, Y8, Y3) \
	FMM((SI)(BX*1), Y14, Y9, Y4) \
	FMM(32(SI)(BX*1), Y15, Y9, Y5) \
	FMM(64(SI)(BX*1), Y12, Y9, Y6) \
	FMM(96(SI)(BX*1), Y13, Y9, Y7)

#define GONE256 \
	VBROADCASTSD (R9)(AX*1), Y8 \
	FMM((SI), Y14, Y8, Y0) \
	FMM(32(SI), Y15, Y8, Y1) \
	FMM(64(SI), Y12, Y8, Y2) \
	FMM(96(SI), Y13, Y8, Y3)

// ADD256 adds ACC into the outputs at byte offset off of R12, OUTM256
// under the mask M.
#define ADD256(off, ACC) \
	VADDPD  off(R12), ACC, ACC \
	VMOVUPD ACC, off(R12)

#define OUTM256(off, M, ACC) \
	VMASKMOVPD off(R12), M, Y10 \
	VADDPD     Y10, ACC, ACC \
	VMASKMOVPD ACC, M, off(R12)

// func denseGemvAVX2(a *float64, m, k int, x, y *float64)
//
// denseGemvAVX512 four lanes per register: a panel's 16 rows in four of
// them. Two whole panels run together, column by column, one broadcast
// feeding eight FMAs; a panel left over (the short last one, or one whole
// one beside it) runs alone under the masks, two columns a step. R12 is the
// panel's outputs, R10 the bytes of whole two-column steps, R13 the single
// panel's end.
TEXT ·denseGemvAVX2(SB), NOSPLIT, $0-40
	MOVQ a+0(FP), SI
	MOVQ m+8(FP), R8
	MOVQ k+16(FP), DX
	MOVQ x+24(FP), R9
	MOVQ y+32(FP), R12
	MOVQ DX, R10
	ANDQ $-2, R10
	SHLQ $3, R10
	SHLQ $3, DX

gpanel256:
	ZERO8(VXORPD, Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7)
	XORQ AX, AX
	CMPQ R8, $32
	JLT  gsingle256
	LEAQ (SI)(DX*8), DI
	LEAQ (DI)(DX*8), DI

gdual256:
	VBROADCASTSD (R9)(AX*1), Y8
	VFMADD231PD  (SI), Y8, Y0
	VFMADD231PD  32(SI), Y8, Y1
	VFMADD231PD  64(SI), Y8, Y2
	VFMADD231PD  96(SI), Y8, Y3
	VFMADD231PD  (DI), Y8, Y4
	VFMADD231PD  32(DI), Y8, Y5
	VFMADD231PD  64(DI), Y8, Y6
	VFMADD231PD  96(DI), Y8, Y7
	ADDQ $128, SI
	ADDQ $128, DI
	ADDQ $8, AX
	CMPQ AX, DX
	JLT  gdual256
	ADD256(0, Y0)
	ADD256(32, Y1)
	ADD256(64, Y2)
	ADD256(96, Y3)
	ADD256(128, Y4)
	ADD256(160, Y5)
	ADD256(192, Y6)
	ADD256(224, Y7)
	ADDQ $256, R12
	MOVQ DI, SI
	SUBQ $32, R8
	JGT  gpanel256
	JMP  gdone256

gsingle256:
	MOVQ    $16, CX
	CMPQ    R8, CX
	CMOVQLT R8, CX
	MOVQ    CX, BX
	SHLQ    $3, BX
	MOVQ    DX, R13
	IMULQ   CX, R13
	ADDQ    SI, R13
	SUBQ    $8, CX
	MASK256
	VMOVDQU Y14, Y12
	VMOVDQU Y15, Y13
	ADDQ    $8, CX
	MASK256
	CMPQ    AX, R10
	JGE     gsone256

gspair256:
	GPAIR256
	LEAQ (SI)(BX*2), SI
	ADDQ $16, AX
	CMPQ AX, R10
	JLT  gspair256

gsone256:
	CMPQ AX, DX
	JGE  gssum256
	GONE256

gssum256:
	VADDPD Y4, Y0, Y0
	VADDPD Y5, Y1, Y1
	VADDPD Y6, Y2, Y2
	VADDPD Y7, Y3, Y3
	OUTM256(0, Y14, Y0)
	OUTM256(32, Y15, Y1)
	OUTM256(64, Y12, Y2)
	OUTM256(96, Y13, Y3)
	ADDQ $128, R12
	MOVQ R13, SI
	SUBQ $16, R8
	JGT  gpanel256

gdone256:
	VZEROUPPER
	RET
