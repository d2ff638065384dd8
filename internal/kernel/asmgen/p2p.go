package main

import (
	"fmt"
	"math"
	"math/bits"
)

// The vector pair loops (p2p.go states the contract, DESIGN.md "Batched
// execution" the numerics): four loops, Laplace and Yukawa in float64 and
// float32, each one description bound to AVX-512 and to AVX2+FMA. Every
// loop walks the block in register groups of two vectors of targets, and
// for each group streams the sources, broadcast one at a time: the float64
// loops' from the []geom.Point (24 bytes apart), accumulating into acc; the
// float32 loops' from the narrowed []src32 (16 bytes apart), summing one
// sub-chunk of at most 256 sources into part, in float32, on the block's
// float32 image (coordinates relative to the block's origin, never absolute
// ones). A float32 pair whose narrowed r² is below r2Min is skipped if its
// float64 coordinates equal the source's, and is otherwise a hazard: the
// loop returns 1 and the driver recomputes the block and sub-chunk with the
// float64 loop.

// A pairLoop is one pair loop: its kernel and its precision.
type pairLoop struct{ yukawa, f32 bool }

func p2pFile() []byte {
	g := newFile("p2p.go", "// pairBlock layout: n at 0, then x, y, z, acc, 256 float64 each, then x32,\n// y32, z32, part, 256 float32 each (TestPairBlockLayout).\n")
	for i, n := range []string{"X", "Y", "Z", "ACC", "X32", "Y32", "Z32", "PART"} {
		fmt.Fprintf(g, "#define BLK_%s %d\n", n, 8+2048*min(i, 4)+1024*max(i-4, 0))
	}
	fmt.Fprintln(g)
	g.table("pairconst", 1, nil, math.Float64bits(0.5), math.Float64bits(math.Inf(1)))
	// The float32 loops' constants, each eight times over for the AVX2
	// loops' memory operands: 3, then r2Min = 2⁻¹⁶, the least narrowed r²
	// summed (p2p.go).
	g.table("pair32c", 4, nil, f32x2(3), f32x2(0x1p-16))
	// The float32 Yukawa loops' (pair's last case): −½ (−λ′/2 from λ′);
	// −86.9, above which e^t is a normal float32 (AVX2); −110, at which e^t
	// scales to 0 (AVX-512); log₂e; ln2 rounded to float32 and the rest;
	// the magic 1.5·2²³ (k + magic holds k in its low bits); and c0…c6.
	ln2hi := float32(math.Ln2)
	g.table("yuk32c", 4, []string{"Y32_NHALF", "Y32_TMIN", "Y32_CLAMP", "Y32_LOG2E", "Y32_LN2HI",
		"Y32_LN2LO", "Y32_MAGIC", "Y32_C0", "Y32_C1", "Y32_C2", "Y32_C3", "Y32_C4", "Y32_C5", "Y32_C6"},
		f32x2(-0.5), f32x2(-86.9), f32x2(-110), f32x2(math.Log2E), f32x2(ln2hi),
		f32x2(float32(math.Ln2-float64(ln2hi))), f32x2(0x1.8p23), f32x2(1), f32x2(1),
		0x3efffffe3efffffe, 0x3e2aaa0c3e2aaa0c, 0x3d2aac123d2aac12, 0x3c0933ec3c0933ec, 0x3ab573703ab57370)
	g.yukconst()
	for _, l := range []pairLoop{{false, false}, {false, true}, {true, true}, {true, false}} {
		g.both(func() { l.emit(g) })
	}
	return g.Bytes()
}

// f32x2 is two copies of x's bits.
func f32x2(x float32) uint64 { b := uint64(math.Float32bits(x)); return b<<32 | b }

func (l pairLoop) emit(g *gen) {
	name, sig, o, lanes := "laplacePairs", "src []geom.Point, q []float64, blk *pairBlock)", 0, g.w/8
	if l.f32 {
		name, sig, lanes = name+"32", "ns []src32, src []geom.Point, blk *pairBlock) int", 2*lanes
	}
	if l.yukawa {
		name, sig, o = "yukawa"+name[7:], map[bool]string{false: "lambda float64, ", true: "lam float32, "}[l.f32]+sig, 8
	}
	g.text(name, "("+sig, o+map[bool]int{false: 56, true: 64}[l.f32])
	g.let("P", "D", "S1", "src", "S2", "q", "X", "BLK_X", "Y", "BLK_Y", "Z", "BLK_Z", "OUT", "BLK_ACC", "SRC", 24, "Q", 8)
	if l.f32 {
		g.let("P", "S", "S1", "ns", "S2", "src", "X", "BLK_X32", "Y", "BLK_Y32", "Z", "BLK_Z32", "OUT", "BLK_PART", "SRC", 16, "Q", 24,
			"R2MIN", map[bool]string{true: "Z17", false: "pair32c<>+32(SB)"}[g.z],
			"THREE", map[bool]string{true: "Z16", false: "pair32c<>+0(SB)"}[g.z])
	}
	g.let("f32", l.f32, "f64", !l.f32, "O0", o, "O8", o+8, "O24", o+24, "O48", o+48, "RET", o+56,
		"G", 2*lanes-1, "LG", bits.TrailingZeros(uint(2*lanes)), "N", 2*lanes)
	g.asm(`
	MOVQ {S1}_base+{O0}(FP), SI
	MOVQ {S1}_len+{O8}(FP), CX
	MOVQ {S2}_base+{O24}(FP), DI
	MOVQ blk+{O48}(FP), BX
f32:	MOVQ $0, ret+{RET}(FP)
	MOVQ (BX), DX
	ADDQ ${G}, DX
	SHRQ ${LG}, DX // groups of {N} targets
	JZ   done
	TESTQ CX, CX
	JZ   done
f32:	MOVQ BX, R12 // the group's float64 coordinates, {W4} bytes a group`)
	l.setup(g)
	g.asm(`
group:
	VMOVUP{P} {X}(BX), V0
	VMOVUP{P} {X}+{W1}(BX), V1
	VMOVUP{P} {Y}(BX), V2
	VMOVUP{P} {Y}+{W1}(BX), V3
	VMOVUP{P} {Z}(BX), V4
	VMOVUP{P} {Z}+{W1}(BX), V5
f32 512:	VPXORD V6, V6, V6
f32 512:	VPXORD V7, V7, V7
f32 256:	VXORPS V6, V6, V6
f32 256:	VXORPS V7, V7, V7
f64:	VMOVUPD {OUT}(BX), V6
f64:	VMOVUPD {OUT}+{W1}(BX), V7
	MOVQ SI, R8
	MOVQ DI, R9
	MOVQ CX, R10
source:`)
	if g.z || !l.yukawa {
		l.source(g, true)
	}
	scratch := map[bool][2][]int{true: {{12, 13, 14, 19}, {19, 20, 21}}, false: {{12, 13, 14}, {12, 13, 14}}}[g.z]
	switch {
	case g.z && l.yukawa:
		scratch = [2][]int{{12, 13, 14, 19}, {20, 21, 22, 23}}
	case l.yukawa:
		scratch = [2][]int{{8, 9, 10, 12}, {8, 9, 10, 12}}
	}
	for h := range 2 {
		g.let("TX", v(h), "TY", v(2+h), "TZ", v(4+h), "ACC", v(6+h), "K", fmt.Sprintf("K%d", h+1))
		if !g.z {
			g.let("K", map[bool]string{false: "Y15", true: "Y14"}[l.yukawa])
		}
		for i, r := range scratch[h] {
			g.let(string(rune('A'+i)), v(r))
		}
		l.pair(g)
		g.asm("f32 256 first: MOVL AX, R11", "first", h == 0)
	}
	g.asm(`
f32 512:	KANDW    K1, K2, K3
f32 512:	KORTESTW K3, K3
f32 512:	JCC      close // a lane below r2Min
f32 256:	SHLL $8, AX
f32 256:	ORL  AX, R11 // the 16 lanes' range mask
f32 256:	CMPL R11, $0xffff
f32 256:	JNE  close
f32:	next:
	ADDQ ${SRC}, R8
	ADDQ ${Q}, R9
	DECQ R10
	JNZ  source
	VMOVUP{P} V6, {OUT}(BX)
	VMOVUP{P} V7, {OUT}+{W1}(BX)
	ADDQ ${W2}, BX
f32:	ADDQ ${W4}, R12
	DECQ DX
	JNZ  group
done:
	VZEROUPPER
	RET`)
	if l.f32 {
		g.asm("close:")
		g.hazard()
		g.asm(`
	MOVQ $1, ret+{RET}(FP)
	VZEROUPPER
	RET`)
	}
}

// source broadcasts the source's coordinates at R8 into V8–V10 and, if q,
// its charge (the float64 loops' at R9) into V11.
func (l pairLoop) source(g *gen, q bool) {
	for i := range 3 {
		g.asm("VBROADCASTS{P} {E}(R8), {V}", "E", i*map[bool]int{false: 8, true: 4}[l.f32], "V", v(8+i))
	}
	if q {
		g.asm(map[bool]string{false: "VBROADCASTSD (R9), V11", true: "VBROADCASTSS 12(R8), V11"}[l.f32])
	}
}

// setup loads the loop's constants before the first group.
func (l pairLoop) setup(g *gen) {
	switch {
	case l.f32:
		g.asm(`
512:	VBROADCASTSS pair32c<>+0(SB), Z16
512:	VBROADCASTSS pair32c<>+32(SB), Z17`)
		if l.yukawa {
			g.let("NL", map[bool]string{true: "Z18", false: "Y15"}[g.z])
			g.asm(`
	VBROADCASTSS lam+0(FP), {NL}
	VMULPS{BCST} yuk32c<>+Y32_NHALF(SB), {NL}, {NL}
512:	VBROADCASTSS yuk32c<>+Y32_CLAMP(SB), Z15
512:	VBROADCASTSS yuk32c<>+Y32_LOG2E(SB), Z27
512:	VBROADCASTSS yuk32c<>+Y32_LN2HI(SB), Z28
512:	VBROADCASTSS yuk32c<>+Y32_LN2LO(SB), Z29
512:	VBROADCASTSS yuk32c<>+Y32_C6(SB), Z30`)
		}
	case l.yukawa:
		g.asm(`
512:	VPXORQ       Z15, Z15, Z15
512:	VBROADCASTSD pairconst<>+8(SB), Z18
512:	VBROADCASTSD lambda+0(FP), Z16
512:	VSUBPD       Z16, Z15, Z16 // -λ
512:	VBROADCASTSD yukconst<>+YK_C0(SB), Z17
256:	VBROADCASTSD lambda+0(FP), Y15
256:	VXORPD       Y14, Y14, Y14
256:	VSUBPD       Y15, Y14, Y15 // -λ`)
	default:
		g.asm(`
512:	VPXORQ       Z15, Z15, Z15
512:	VBROADCASTSD pairconst<>+0(SB), Z16
512:	VBROADCASTSD pairconst<>+8(SB), Z18
256:	VXORPD       Y15, Y15, Y15`)
	}
}

// pair adds the pairs of one vector of targets (TX, TY, TZ) against the
// source into ACC, with A, B, C, D scratch and K the mask.
func (l pairLoop) pair(g *gen) {
	switch {
	case !l.yukawa && !l.f32:
		// AVX-512: r² = dx² ⊕ dy² ⊕ dz²; K = r² ≠ 0 and not r² ≥ +Inf (a NaN
		// stays in and propagates, as in the scalar loop); y ≈ r²^-½ to 14
		// bits, then twice y ← y + y·(0.5 − (0.5·r²·y)·y), the Newton step in
		// the form whose last operation rounds once onto a small correction;
		// acc += q·y under K. AVX2: the portable loop's operations in its
		// order — no fused multiply-add, an exact square root and an exact
		// divide — so every lane is its bits; the skipped pair becomes an
		// added +0, q/√0 masked to zero.
		g.r2(g.z)
		g.asm(`
512:	VCMPPD       $4, Z15, {A}, {K}
512:	VCMPPD       $0x19, Z18, {A}, {K}, {K}
512:	VRSQRT14PD   {A}, {B}
512:	VMULPD       Z16, {A}, {A}
512:	VMULPD       {B}, {A}, {C}
512:	VFNMADD213PD Z16, {B}, {C}
512:	VFMADD231PD  {C}, {B}, {B}
512:	VMULPD       {B}, {A}, {C}
512:	VFNMADD213PD Z16, {B}, {C}
512:	VFMADD231PD  {C}, {B}, {B}
512:	VFMADD231PD  {B}, Z11, {K}, {ACC}
256:	VCMPPD       $4, Y15, Y12, Y13
256:	VSQRTPD      Y12, Y12
256:	VDIVPD       Y12, Y11, Y12
256:	VANDPD       Y13, Y12, Y12
256:	VADDPD       Y12, {ACC}, {ACC}`)

	case l.yukawa && !l.f32:
		// q·e^{-λr}/r with Laplace's mask; r² the portable loop's, unfused and
		// in its order, and r its exact square root, so t = -λr is the
		// portable loop's t bit for bit; e^t is exp's, t clamped at -746 first
		// so that a huge or overflowed λr gives 0, as in the portable loop,
		// and not the NaN of a reduction of -1e300. AVX-512: Z16 = -λ, Z17 =
		// 1; y ≈ 1/r to 14 bits, then twice y ← y + y·(1 − r·y); acc +=
		// q·(e^t·y) under K; a NaN r propagates through y. AVX2: Y15 = -λ;
		// the source broadcast here, to free the registers; then (q·e^t)/r,
		// the portable loop's last two operations, masked to +0 where r² = 0.
		if !g.z {
			l.source(g, false)
		}
		g.r2(false)
		g.asm(`
512:	VCMPPD       $4, Z15, {A}, {K}
512:	VCMPPD       $0x19, Z18, {A}, {K}, {K}
512:	VSQRTPD      {A}, {A}
512:	VRCP14PD     {A}, {B}
512:	VMOVAPD      Z17, {C}
512:	VFNMADD231PD {B}, {A}, {C}
512:	VFMADD231PD  {C}, {B}, {B}
512:	VMOVAPD      Z17, {C}
512:	VFNMADD231PD {B}, {A}, {C}
512:	VFMADD231PD  {C}, {B}, {B}
512:	VMULPD       Z16, {A}, {A}
512:	VMAXPD.BCST  yukconst<>+YK_CLAMP(SB), {A}, {A}
256:	VXORPD       Y14, Y14, Y14
256:	VCMPPD       $4, Y14, Y8, Y14
256:	VSQRTPD      Y8, Y8
256:	VMULPD       Y15, Y8, Y9
256:	VMAXPD       yukconst<>+YK_CLAMP(SB), Y9, Y9`)
		if g.z {
			g.exp(g.env["A"].(string), g.env["C"].(string), g.env["D"].(string), "")
		} else {
			g.exp("Y9", "Y10", "Y11", "Y12")
		}
		g.asm(`
512:	VMULPD       {B}, {D}, {D}
512:	VFMADD231PD  {D}, Z11, {K}, {ACC}
256:	VBROADCASTSD (R9), Y12
256:	VMULPD       Y12, Y11, Y11
256:	VDIVPD       Y8, Y11, Y11
256:	VANDPD       Y14, Y11, Y11
256:	VADDPD       Y11, {ACC}, {ACC}`)

	case !l.yukawa:
		// K = r² ≥ r2Min (r² is finite: the driver narrowed only finite
		// coordinates near the block); w ≈ 2/r (w32), which the halved charge
		// undoes; acc += (q/2)·w under K: twelve vector operations
		// (VRSQRT14PS is two) per sixteen pairs on AVX-512. On AVX2 K is a
		// vector (a lane below r2Min, where w may be ∞ or NaN, is masked to
		// +0), its sign bits left in AX.
		g.r2(true)
		g.asm("VCMPPS $0x1d, {R2MIN}, {A}, {K}")
		g.w32()
		g.asm(`
512:	VFMADD231PS  {B}, Z11, {K}, {ACC}
256:	VANDPS       {K}, {B}, {B}
256:	VFMADD231PS  {B}, V11, {ACC}
256:	VMOVMSKPS    {K}, AX`)

	default:
		// q·e^{-λ′r}/r: Laplace's w and mask, t = −(λ′/2)·r²·w = −λ′r (NL =
		// −λ′/2), e^t = 2^k·e^f with k = round(t·log₂e) and f = t − k·ln2
		// (Cody–Waite, by FMA), e^f on |f| ≤ ln2/2 by a degree-6 polynomial
		// fitted for least relative error with float32 coefficients (0.3·2⁻²⁴
		// in exact arithmetic); acc += (q/2)·(e^t·w) under K. AVX-512 (Z15 =
		// −110, Z27–Z30 = log₂e, ln2hi, ln2lo, c6): r² raised to r2Min first,
		// so that a lane outside K — a coincident pair's r² = 0 among them —
		// stays finite (the ∞ of the rsqrt of 0 and the NaNs after it ran a
		// leaf against itself at twice the cost of two distinct leaves); t
		// clamped at −110, so a huge λ′r gives 0 and not the NaN of a
		// reduction of −1e10; 2^k by VSCALEFPS, which rounds once into the
		// subnormals. AVX2: k added to e^f's exponent field, right where t >
		// −86.9; t at or below that (NaN too) is masked to 0 with the lanes
		// below r2Min.
		if !g.z {
			l.source(g, false)
		}
		g.r2(true)
		g.asm(`
	VCMPPS       $0x1d, {R2MIN}, {A}, {K}
256:	VMOVMSKPS    {K}, AX
512:	VMAXPS       Z17, {A}, {A}`)
		g.w32()
		g.asm(`
	VMULPS       {NL}, {A}, {A}
	VMULPS       {B}, {A}, {A}
512:	VMAXPS       Z15, {A}, {A}
512:	VMULPS       Z27, {A}, {C}
512:	VRNDSCALEPS  $0, {C}, {C}
512:	VFNMADD231PS Z28, {C}, {A}
512:	VFNMADD231PS Z29, {C}, {A}
512:	VMOVAPS      Z30, {D}
256:	VCMPPS       $0x1e, yuk32c<>+Y32_TMIN(SB), Y8, Y10
256:	VANDPS       Y10, Y14, Y14
256:	VMOVUPS      yuk32c<>+Y32_MAGIC(SB), Y11
256:	VFMADD231PS  yuk32c<>+Y32_LOG2E(SB), Y8, Y11
256:	VSUBPS       yuk32c<>+Y32_MAGIC(SB), Y11, Y12
256:	VFNMADD231PS yuk32c<>+Y32_LN2HI(SB), Y12, Y8
256:	VFNMADD231PS yuk32c<>+Y32_LN2LO(SB), Y12, Y8
256:	VMOVUPS      yuk32c<>+Y32_C6(SB), Y12`)
		for n := 5; n >= 0; n-- {
			g.asm("VFMADD213PS{BCST} yuk32c<>+Y32_C{N}(SB), {A}, {D}", "N", n)
		}
		g.asm(`
512:	VSCALEFPS    {C}, {D}, {D}
512:	VMULPS       {B}, {D}, {D}
512:	VFMADD231PS  {D}, Z11, {K}, {ACC}
256:	VPSLLD       $23, Y11, Y11
256:	VPADDD       Y11, Y12, Y12
256:	VMULPS       Y9, Y12, Y12
256:	VANDPS       Y14, Y12, Y12
256:	VBROADCASTSS 12(R8), Y13
256:	VFMADD231PS  Y12, Y13, {ACC}`)
	}
}

// r2 sets A = |T − S|² for the source S in V8–V10, with B and C scratch:
// fused, or in the portable loop's order, one rounding per operation.
func (g *gen) r2(fused bool) {
	g.asm(`
	VSUBP{P} V8, {TX}, {A}
	VSUBP{P} V9, {TY}, {B}
	VSUBP{P} V10, {TZ}, {C}
	VMULP{P} {A}, {A}, {A}`)
	if fused {
		g.asm(`
	VFMADD231P{P} {B}, {B}, {A}
	VFMADD231P{P} {C}, {C}, {A}`)
		return
	}
	g.asm(`
	VMULP{P} {B}, {B}, {B}
	VMULP{P} {C}, {C}, {C}
	VADDP{P} {B}, {A}, {A}
	VADDP{P} {C}, {A}, {A}`)
}

// w32 sets B = w ≈ 2/r from A = r²: y ≈ r²^-½ (to 14 bits on AVX-512, 12
// on AVX2) and one Newton step in the form w = y·(3 − (r²·y)·y), C scratch.
func (g *gen) w32() {
	g.asm(`
512:	VRSQRT14PS   {A}, {B}
256:	VRSQRTPS     {A}, {B}
	VMULPS       {B}, {A}, {C}
	VFNMADD213PS {THREE}, {B}, {C}
	VMULPS       {C}, {B}, {B}`)
}

// hazard handles lanes below r2Min (K1 and K2 on AVX-512, the range mask
// in R11 on AVX2) at the source's float64 coordinates (R9): they are a
// hazard unless those equal the targets' (the group's at R12). The equal
// lanes join the mask, and the loop goes on at next if that covers them
// all; otherwise the code after hazard reports the hazard.
func (g *gen) hazard() {
	for i := range 3 {
		g.asm("VBROADCASTSD {E}(R9), {V}", "E", 8*i, "V", v(map[bool]int{true: 24, false: 12}[g.z]+i))
	}
	if g.z {
		// Lanes 0–15 (j = 0) and 16–31 of the float64 coordinates equal to
		// the source, in halves of eight (K3 and K4, then K4 and K5), join K1
		// and K2.
		for j := range 2 {
			for i := range 2 {
				g.asm(`
	VCMPPD $0, BLK_X+{OFF}(R12), Z24, {K}
	VCMPPD $0, BLK_Y+{OFF}(R12), Z25, {K}, {K}
	VCMPPD $0, BLK_Z+{OFF}(R12), Z26, {K}, {K}`, "OFF", 128*j+64*i, "K", fmt.Sprintf("K%d", 3+j+i))
			}
			g.asm("KUNPCKBW {LO}, {HI}, {LO}\nKORW {M}, {LO}, {M}", "LO", fmt.Sprintf("K%d", 3+j), "HI", fmt.Sprintf("K%d", 4+j), "M", fmt.Sprintf("K%d", 1+j))
		}
		g.asm(`
	KANDW    K1, K2, K3
	KORTESTW K3, K3
	JCS      next`)
		return
	}
	for i := range 4 {
		g.asm(`
	VCMPPD    $0, BLK_X+{OFF}(R12), Y12, Y8
	VCMPPD    $0, BLK_Y+{OFF}(R12), Y13, Y9
	VCMPPD    $0, BLK_Z+{OFF}(R12), Y14, Y10
	VANDPD    Y9, Y8, Y8
	VANDPD    Y10, Y8, Y8
	VMOVMSKPD Y8, AX
	SHLL      ${SHIFT}, AX
	ORL       AX, R11`, "OFF", 32*i, "SHIFT", 4*i)
	}
	g.asm(`
	CMPL R11, $0xffff
	JEQ  next`)
}
