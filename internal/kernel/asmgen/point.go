package main

import (
	"fmt"
	"math"
)

// The point block's passes (point.go states the contract and the numerics):
// the Y_n^m recurrence with the S->M sums (project) or the potential
// (eval), Miller's downward recurrence for i_n, and the upward one for
// k_n, each one description bound to AVX-512 (eight lanes, a packed slot
// 128 bytes, a rad row 64) and to AVX2 (four lanes, 64 and 32). Lane i of a
// row is point i; a packed slot of Y (and of the S->M sums) is its Re lanes
// followed by its Im lanes, a row of rad its lanes. Every recurrence step
// is the portable evaluator's operations, unfused and in its order
// (sphharm.YnmPackedXYZ), with the step's coefficients broadcast: a lane's
// Y_n^m is the portable loop's bits. AVX-512 takes a broadcast operand
// where AVX2 broadcasts into a register first, and keeps Y_0^0 and zero in
// Z30 and Z31 where AVX2, with half the registers, uses Y8 and Y10.
func pointFile() []byte {
	g := newFile("point.go", "// pointBlock layout: x, y, z, q, pot, xl, inv, i0 (eight float64 each),\n// then the slice headers of rad, ylm and acc.\n")
	for i, n := range []string{"X", "Y", "Z", "Q", "POT", "XL", "INV", "I0", "RAD", "YLM", "ACC"} {
		fmt.Fprintf(g, "#define PB_%s %d\n", n, 64*min(i, 8)+24*max(i-8, 0))
	}
	fmt.Fprintln(g)
	// 1e250 is millerDown's rescale bound.
	g.table("ptconst", 1, []string{"PT_HALF", "PT_ONE", "PT_TWO", "PT_THREE", "PT_BIG", "PT_PI"},
		math.Float64bits(0.5), math.Float64bits(1), math.Float64bits(2), math.Float64bits(3),
		math.Float64bits(1e250), math.Float64bits(math.Pi))
	g.yukconst()
	// All AVX-512 passes first, as the hand-written file had them, so that
	// each routine keeps its address in the linked binary.
	g.both(func() {
		for _, emit := range []func(*gen){pointProject, pointEval, pointMiller, pointBesselK} {
			emit(g)
		}
	})
	return g.Bytes()
}

// pointRegs binds the registers that differ by instruction set: Y_0^0 and
// zero, the S->M sums' scratch T0–T2 and eval's sum sn.
func pointRegs(g *gen) {
	if g.z {
		g.let("K00", "Z30", "ZERO", "Z31", "T0", "Z16", "T1", "Z17", "T2", "Z18", "SN", "Z20")
	} else {
		g.let("K00", "Y8", "ZERO", "Y10", "T0", "Y13", "T1", "Y14", "T2", "Y15", "SN", "Y4")
	}
}

// pointRows loads the block: CX = p, R8 the steps, R13 rad, R9 ylm, V0–V2
// the unit vectors.
const pointRows = `
	MOVQ    p+0(FP), CX
	MOVQ    steps_base+8(FP), R8
	MOVQ    {S2}_base+32(FP), {R}
	MOVQ    pb+56(FP), BX
	MOVQ    PB_RAD(BX), R13
	MOVQ    PB_YLM(BX), R9`

func pointProject(g *gen) {
	g.text("pointProject", "(p int, steps, cn []float64, pb *pointBlock)", 64)
	pointRegs(g)
	g.asm(pointRows+`
	MOVQ    PB_ACC(BX), R12
	VMOVUPD PB_X(BX), V0
	VMOVUPD PB_Y(BX), V1
	VMOVUPD PB_Z(BX), V2
	VMOVUPD PB_Q(BX), V3
512:	VPXORQ  Z31, Z31, Z31`, "S2", "cn", "R", "R14")
	// n = 0: Y_0^0 = K_0^0.
	rowF(g)
	g.asm("256: VXORPD Y10, Y10, Y10")
	g.y00()
	acc(g, "{K00}", "{ZERO}", "0")
	// n = 1: Y_1^0 = (a z)K, Y_1^1 = ((a x)K, (a y)K).
	g.asm(`
	TESTQ CX, CX
	JZ    done
	ADDQ  $8, R14
	ADDQ  ${W1}, R13`)
	rowF(g)
	g.y1()
	acc(g, "V7", "{ZERO}", "{W2}")
	acc(g, "V11", "V12", "{W4}")
	// Rows n = 2…p (SI): R8 the step and R9 the slot written, R10 and R11
	// the entries of rows n-1 and n-2 read, R12 the slot's sums, R13 and
	// R14 row n of rad and cn.
	g.asm(`
	CMPQ CX, $1
	JEQ  done
	MOVQ R9, R11
	LEAQ {W2}(R9), R10
	ADDQ ${W6}, R9
	ADDQ ${W6}, R12
	ADDQ $48, R8
	ADDQ ${W1}, R13
	ADDQ $8, R14
	MOVQ $2, SI
row:`)
	rowF(g)
	g.asm(`
	LEAQ -1(SI), DX
entry:`)
	g.rec()
	acc(g, "V7", "V9", "0")
	g.next("{W2}")
	g.asm(`
	DECQ DX
	JNZ  entry`)
	g.diag()
	acc(g, "V7", "V9", "0")
	acc(g, "V11", "V12", "{W2}")
	g.asm(`
	ADDQ $32, R8
	ADDQ ${W4}, R9
	ADDQ ${W2}, R10
	ADDQ ${W4}, R12
	ADDQ ${W1}, R13
	ADDQ $8, R14
	INCQ SI
	CMPQ SI, CX
	JLE  row
done:
	VZEROUPPER
	RET`)
}

func pointEval(g *gen) {
	g.text("pointEval", "(p int, steps []float64, coeff []complex128, pb *pointBlock)", 64)
	pointRegs(g)
	g.asm(pointRows+`
	VMOVUPD      PB_X(BX), V0
	VMOVUPD      PB_Y(BX), V1
	VMOVUPD      PB_Z(BX), V2
512:	VPXORQ       Z3, Z3, Z3
512:	VPXORQ       Z31, Z31, Z31
512:	VBROADCASTSD ptconst<>+PT_HALF(SB), Z21
256:	VXORPD       Y3, Y3, Y3
256:	VXORPD       Y10, Y10, Y10`, "S2", "coeff", "R", "R12")
	g.y00()
	sn0(g, "{K00}", "0")
	endRow(g)
	g.asm(`
	TESTQ CX, CX
	JZ    done
	ADDQ  ${W1}, R13`)
	g.y1()
	sn0(g, "V7", "16")
	dot(g, "V11", "V12", "32")
	endRow(g)
	// Rows n = 2…p as in pointProject, R12 the coefficient of the slot
	// written.
	g.asm(`
	CMPQ CX, $1
	JEQ  done
	MOVQ R9, R11
	LEAQ {W2}(R9), R10
	ADDQ ${W6}, R9
	ADDQ $48, R12
	ADDQ $48, R8
	ADDQ ${W1}, R13
	MOVQ $2, SI
row:`)
	g.rec()
	sn0(g, "V7", "0")
	g.next("16")
	g.asm(`
	LEAQ  -2(SI), DX
	TESTQ DX, DX
	JZ    diag
entry:`)
	g.rec()
	dot(g, "V7", "V9", "0")
	g.next("16")
	g.asm(`
	DECQ DX
	JNZ  entry
diag:`)
	g.diag()
	dot(g, "V7", "V9", "0")
	dot(g, "V11", "V12", "16")
	endRow(g)
	g.asm(`
	ADDQ $32, R8
	ADDQ ${W4}, R9
	ADDQ ${W2}, R10
	ADDQ $32, R12
	ADDQ ${W1}, R13
	INCQ SI
	CMPQ SI, CX
	JLE  row
done:
	VMOVUPD V3, PB_POT(BX)
	VZEROUPPER
	RET`)
}

// y00 stores Y_0^0 = K_0^0, kept in K00.
func (g *gen) y00() {
	g.asm(`
	VBROADCASTSD (R8), {K00}
	VMOVUPD      {K00}, (R9)
	VMOVUPD      {ZERO}, {W1}(R9)`)
}

// y1 stores row 1 into V7 (m = 0) and V11, V12 (m = 1).
func (g *gen) y1() {
	g.asm(`
512:	VMULPD.BCST  16(R8), V2, V7
256:	VBROADCASTSD 16(R8), V7
256:	VMULPD       V2, V7, V7
	VMULPD       {K00}, V7, V7
512:	VMULPD.BCST  32(R8), V0, V11
256:	VBROADCASTSD 32(R8), V5
256:	VMULPD       V0, V5, V11
	VMULPD       {K00}, V11, V11
512:	VMULPD.BCST  32(R8), V1, V12
256:	VMULPD       V1, V5, V12
	VMULPD       {K00}, V12, V12
	VMOVUPD      V7, {W2}(R9)
	VMOVUPD      {ZERO}, {W3}(R9)
	VMOVUPD      V11, {W4}(R9)
	VMOVUPD      V12, {W5}(R9)`)
}

// rec is Y_n^m for m < n-1 from the step at (R8) and rows n-1, n-2 at
// (R10), (R11): Re into V7, Im into V9, both stored at (R9).
func (g *gen) rec() {
	g.asm(`
512:	VMULPD.BCST  (R8), V2, V5
256:	VBROADCASTSD (R8), V5
256:	VMULPD       V2, V5, V5
	VBROADCASTSD 8(R8), V6
	VMULPD       (R10), V5, V7
	VMULPD       (R11), V6, V8
	VSUBPD       V8, V7, V7
	VMULPD       {W1}(R10), V5, V9
	VMULPD       {W1}(R11), V6, V10
	VSUBPD       V10, V9, V9
	VMOVUPD      V7, (R9)
	VMOVUPD      V9, {W1}(R9)`)
}

// diag is the row's last two entries from Y_{n-1}^{n-1} at (R10): m = n-1
// into V7, V9 stored at (R9), m = n into V11, V12 stored after them.
func (g *gen) diag() {
	g.asm(`
	VMOVUPD      (R10), V11
	VMOVUPD      {W1}(R10), V12
512:	VMULPD.BCST  (R8), V2, V5
256:	VBROADCASTSD (R8), V5
256:	VMULPD       V2, V5, V5
	VMULPD       V11, V5, V7
	VMULPD       V12, V5, V9
	VMULPD       V11, V0, V13
	VMULPD       V12, V1, V14
	VSUBPD       V14, V13, V13
	VMULPD       V12, V0, V14
	VMULPD       V11, V1, V15
	VADDPD       V15, V14, V14
512:	VMULPD.BCST  16(R8), V13, V11
512:	VMULPD.BCST  16(R8), V14, V12
256:	VBROADCASTSD 16(R8), V5
256:	VMULPD       V5, V13, V11
256:	VMULPD       V5, V14, V12
	VMOVUPD      V7, (R9)
	VMOVUPD      V9, {W1}(R9)
	VMOVUPD      V11, {W2}(R9)
	VMOVUPD      V12, {W3}(R9)`)
}

// next moves to the next slot: the step, the slot written and the rows
// read, and R12 by r12.
func (g *gen) next(r12 string) {
	g.asm(`
	ADDQ $16, R8
	ADDQ ${W2}, R9
	ADDQ ${W2}, R10
	ADDQ ${W2}, R11
	ADDQ ${R12}, R12`, "R12", r12)
}

// rowF sets V4 = f = (q·c_n)·rad_n of row n: cn at (R14), rad at (R13).
func rowF(g *gen) {
	g.asm(`
512:	VMULPD.BCST  (R14), V3, V4
256:	VBROADCASTSD (R14), V4
256:	VMULPD       V4, V3, V4
	VMULPD       (R13), V4, V4`)
}

// acc adds f·Re Y to the S->M sums of the slot at off(R12) and subtracts
// f·Im Y.
func acc(g *gen, re, im, off string) {
	g.asm(`
	VMULPD  V4, {RE}, {T0}
	VADDPD  {OFF}(R12), {T0}, {T0}
	VMOVUPD {T0}, {OFF}(R12)
	VMULPD  V4, {IM}, {T1}
	VMOVUPD {OFF}+{W1}(R12), {T2}
	VSUBPD  {T1}, {T2}, {T2}
	VMOVUPD {T2}, {OFF}+{W1}(R12)`, "RE", re, "IM", im, "OFF", off)
}

// sn0 sets sn = (½·Re c)·Re Y for m = 0, c at off(R12).
func sn0(g *gen, re, off string) {
	g.asm(`
	VBROADCASTSD {OFF}(R12), {T0}
256:	VBROADCASTSD ptconst<>+PT_HALF(SB), Y14
512:	VMULPD       Z21, {T0}, {T0}
256:	VMULPD       Y14, {T0}, {T0}
	VMULPD       {RE}, {T0}, {SN}`, "RE", re, "OFF", off)
}

// dot adds Re c·Re Y − Im c·Im Y to sn, c at off(R12).
func dot(g *gen, re, im, off string) {
	g.asm(`
512:	VMULPD.BCST  {OFF}(R12), {RE}, {T0}
512:	VMULPD.BCST  {OFF}+8(R12), {IM}, {T1}
256:	VBROADCASTSD {OFF}(R12), {T0}
256:	VMULPD       {RE}, {T0}, {T0}
256:	VBROADCASTSD {OFF}+8(R12), {T1}
256:	VMULPD       {IM}, {T1}, {T1}
	VSUBPD       {T1}, {T0}, {T0}
	VADDPD       {T0}, {SN}, {SN}`, "RE", re, "IM", im, "OFF", off)
}

// endRow adds (2·sn)·rad_n to the potential in V3, rad at (R13).
func endRow(g *gen) {
	g.asm(`
	VADDPD {SN}, {SN}, {T0}
	VMULPD (R13), {T0}, {T0}
	VADDPD {T0}, V3, V3`)
}

// pointMiller: one Miller step is f_{n-1} = f_{n+1} + ((2n+1)·inv)·f_n
// with V0 = inv, V1 = f_{n+1}, V2 = f_n, V3 = 2n+1, V4 = 2; V5 the running
// maximum. The multiply-add is fused: the recurrence is a dependent chain
// of start steps, and the pass already differs from the scalar one in its
// start.
func pointMiller(g *gen) {
	g.text("pointMiller", "(p, start int, scale []float64, pb *pointBlock) (over uint8)", 49)
	miller := `
	VMULPD      V0, V3, V6
	VFMADD213PD V1, V2, V6
	VMOVAPD     V2, V1
	VMOVAPD     V6, V2
	VMAXPD      V2, V5, V5
	VSUBPD      V4, V3, V3`
	g.asm(`
	MOVQ         p+0(FP), CX
	MOVQ         start+8(FP), DX
	MOVQ         scale_base+16(FP), R8
	MOVQ         pb+40(FP), BX
	MOVQ         PB_RAD(BX), R13
	VMOVUPD      PB_INV(BX), V0
512:	VPXORQ       Z1, Z1, Z1
256:	VXORPD       Y1, Y1, Y1
	VBROADCASTSD ptconst<>+PT_ONE(SB), V2
	VMOVAPD      V2, V5
	LEAQ         1(DX)(DX*1), AX
	VCVTSI2SDQ   AX, X3, X3
	VBROADCASTSD X3, V3
	VBROADCASTSD ptconst<>+PT_TWO(SB), V4
	LEAQ         1(CX), SI
up: // n = start … p+2: nothing stored
	CMPQ DX, SI
	JLE  rows`+miller+`
	DECQ DX
	JMP  up
rows: // n = p+1 … 1: f_{n-1} to row n-1
	MOVQ CX, AX
	SHLQ ${LOG}, AX
	ADDQ R13, AX
store:`+miller+`
	VMOVUPD V2, (AX)
	SUBQ    ${W1}, AX
	DECQ    DX
	JNZ     store
	VBROADCASTSD ptconst<>+PT_BIG(SB), V6
512:	VCMPPD       $0x1e, Z6, Z5, K1
512:	KMOVW        K1, AX
256:	VCMPPD       $0x1e, Y6, Y5, Y7
256:	VMOVMSKPD    Y7, AX
	MOVB         AX, over+48(FP)
	VMOVUPD      PB_I0(BX), V6 // row n = (f_n · i_0/f_0) · scale[n]
	VDIVPD       (R13), V6, V6
	LEAQ         1(CX), DX
scale:
	VMULPD       (R13), V6, V7
512:	VMULPD.BCST  (R8), Z7, Z7
256:	VBROADCASTSD (R8), Y8
256:	VMULPD       Y8, Y7, Y7
	VMOVUPD      V7, (R13)
	ADDQ         ${W1}, R13
	ADDQ         $8, R8
	DECQ         DX
	JNZ          scale
	VZEROUPPER
	RET`, "LOG", map[bool]int{true: 6, false: 5}[g.z])
}

// pointBesselK: k_0 = e·inv and k_1 = e·(inv + inv·inv) with e =
// e^{-x}·π/2 and inv = 1/x, then k_n = k_{n-2} + ((2n-1)·inv)·k_{n-1}; each
// row times scale[n].
func pointBesselK(g *gen) {
	g.text("pointBesselK", "(p int, scale []float64, pb *pointBlock)", 40)
	// scaled stores V7 = src times the scale at off(R8) at rad's (R13)+at.
	scaled := func(src, off, at string) string {
		return fmt.Sprintf(`
512:	VMULPD.BCST  %[2]s(R8), %[1]s, V7
256:	VBROADCASTSD %[2]s(R8), Y10
256:	VMULPD       Y10, %[1]s, V7
	VMOVUPD      V7, %[3]s(R13)`, src, off, at)
	}
	g.asm(`
	MOVQ         p+0(FP), CX
	MOVQ         scale_base+8(FP), R8
	MOVQ         pb+32(FP), BX
	MOVQ         PB_RAD(BX), R13
	VMOVUPD      PB_XL(BX), V0
	VBROADCASTSD ptconst<>+PT_ONE(SB), V1
	VDIVPD       V0, V1, V1
512:	VPXORQ       Z2, Z2, Z2
256:	VXORPD       Y2, Y2, Y2
	VSUBPD       V0, V2, V2`)
	g.exp("V2", "V3", "V4", "V10")
	g.asm(`
512:	VMULPD.BCST  ptconst<>+PT_PI(SB), Z4, Z4
512:	VMULPD.BCST  ptconst<>+PT_HALF(SB), Z4, Z4
256:	VBROADCASTSD ptconst<>+PT_PI(SB), Y10
256:	VMULPD       Y10, Y4, Y4
256:	VBROADCASTSD ptconst<>+PT_HALF(SB), Y10
256:	VMULPD       Y10, Y4, Y4
	VMULPD       V1, V4, V5` + scaled("V5", "", "") + `
	TESTQ        CX, CX
	JZ           done
	VMULPD       V1, V1, V6
	VADDPD       V6, V1, V6
	VMULPD       V6, V4, V6` + scaled("V6", "8", "{W1}") + `
	CMPQ         CX, $1
	JEQ          done
	VBROADCASTSD ptconst<>+PT_THREE(SB), V8
	VBROADCASTSD ptconst<>+PT_TWO(SB), V9
	ADDQ         ${W2}, R13
	ADDQ         $16, R8
	LEAQ         -1(CX), DX
row:
	VMULPD       V1, V8, V7
	VMULPD       V6, V7, V7
	VADDPD       V7, V5, V7
	VMOVAPD      V6, V5
	VMOVAPD      V7, V6` + scaled("V7", "", "") + `
	VADDPD       V9, V8, V8
	ADDQ         ${W1}, R13
	ADDQ         $8, R8
	DECQ         DX
	JNZ          row
done:
	VZEROUPPER
	RET`)
}
