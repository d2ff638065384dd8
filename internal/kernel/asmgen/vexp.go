package main

import (
	"fmt"
	"math"
)

// The vector exponential of the float64 Yukawa loops (the pair loop and the
// point block's Bessel k_n): e^t = 2^k·e^f with k = round(t·log₂e),
// f = t − k·ln2 (Cody–Waite, by FMA) and a degree-13 Taylor polynomial for
// e^f on |f| ≤ ln2/2. Each file that uses it gets its own copy of the
// table, yukconst: -746 (e^-746 rounds to 0), log₂e, ln2 in math.Exp's
// high and low parts, the magic 2^52 + 1023 (k + magic holds k + 1023 in
// its low bits) and 1/n!, n = 0…13; every constant four times over, so the
// AVX2 loops can take it as a ymm memory operand and the AVX-512 loops as
// a broadcast.
func (g *gen) yukconst() {
	names := []string{"YK_CLAMP", "YK_LOG2E", "YK_LN2HI", "YK_LN2LO", "YK_MAGIC"}
	words := []uint64{math.Float64bits(-746), math.Float64bits(math.Log2E),
		math.Float64bits(6.93147180369123816490e-01), math.Float64bits(1.90821492927058770002e-10),
		math.Float64bits(1<<52 + 1023)}
	fact := 1.0
	for n := range 14 {
		fact *= max(float64(n), 1)
		names, words = append(names, fmt.Sprintf("YK_C%d", n)), append(words, math.Float64bits(1/fact))
	}
	g.table("yukconst", 4, names, words...)
}

// exp sets P = e^T for T in a vector (clobbered: left holding f), K = k.
// AVX-512 forms 2^k by VSCALEFPD, which rounds once into the subnormals.
// AVX2 has none: with S scratch, 2^k is two factors 2^⌊k/2⌋·2^⌈k/2⌉ (the
// halving multiplies by 1/2!), each an integer placed in an exponent field
// by the magic add and a shift (k ≥ -1077 halves to normal powers of two),
// so the product rounds once into the subnormals.
func (g *gen) exp(t, k, p, s string) {
	kv := []any{"T", t, "K", k, "P", p, "S", s}
	g.asm(`
	VMULPD{BCST}       yukconst<>+YK_LOG2E(SB), {T}, {K}
512:	VRNDSCALEPD $0, {K}, {K}
256:	VROUNDPD    $0, {K}, {K}
	VFNMADD231PD{BCST} yukconst<>+YK_LN2HI(SB), {K}, {T}
	VFNMADD231PD{BCST} yukconst<>+YK_LN2LO(SB), {K}, {T}
512:	VBROADCASTSD yukconst<>+YK_C13(SB), {P}
256:	VMOVUPD      yukconst<>+YK_C13(SB), {P}`, kv...)
	for n := 12; n >= 0; n-- {
		g.asm("VFMADD213PD{BCST} yukconst<>+YK_C{N}(SB), {T}, {P}", append(kv, "N", n)...)
	}
	g.asm(`
512:	VSCALEFPD    {K}, {P}, {P}
256:	VMULPD       yukconst<>+YK_C2(SB), {K}, {S}
256:	VROUNDPD     $1, {S}, {S}
256:	VSUBPD       {S}, {K}, {K}
256:	VADDPD       yukconst<>+YK_MAGIC(SB), {S}, {S}
256:	VADDPD       yukconst<>+YK_MAGIC(SB), {K}, {K}
256:	VPSLLQ       $52, {S}, {S}
256:	VPSLLQ       $52, {K}, {K}
256:	VMULPD       {S}, {P}, {P}
256:	VMULPD       {K}, {P}, {P}`, kv...)
}
