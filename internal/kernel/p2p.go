package kernel

import (
	"math"

	"repro/internal/geom"
)

// The near field (DESIGN.md, "Batched execution"): every source–target
// potential pair of the repository — P2P over the near-field lists of one
// target leaf, S2T over one edge — goes through one driver and one pair
// loop bound per kernel. The driver transposes a block of targets into a
// stack-resident structure-of-arrays, streams every source chunk through
// the kernel's pair loop against it, and adds the block's accumulators to
// the potentials.

// P2PChunk is one source block of a near-field apply: the points and
// matching charges of one source leaf.
type P2PChunk struct {
	Pts []geom.Point
	Q   []float64
}

const (
	// blockTargets is the target block size: 256 targets are 8 KB of
	// float64 coordinates and accumulators and 4 KB of their float32 image,
	// L1-resident while the sources stream. It covers a whole leaf of the
	// tuned trees, so a float32 loop narrows each source once per leaf.
	blockTargets = 256
	// blockLanes is the widest register block of any pair loop (two zmm of
	// float32); blockTargets is a multiple of it.
	blockLanes = 32
	// subChunk is how many sources a float32 loop narrows at a time (on the
	// stack) and sums in float32 before the partial is widened.
	subChunk = 256
)

// pairBlock is a block of targets in structure-of-arrays form with their
// accumulators. The driver fills lanes n up to the next multiple of
// blockLanes with copies of target n-1, so a vector loop may work in whole
// register blocks without reading stale coordinates, and drops those lanes'
// accumulators. A float32 loop reads the block's float32 image (narrow):
// the targets relative to the block's origin o, times scale, and writes its
// sub-chunk's partial sums to part. The assembly loops address the fields
// by offset (p2p_amd64.s, generated by asmgen from its p2p.go;
// TestPairBlockLayout): keep the layout.
type pairBlock struct {
	n                   int // targets in use
	x, y, z, acc        [blockTargets]float64
	x32, y32, z32, part [blockTargets]float32
	o                   geom.Point // the float32 image's origin
	scale               float64    // its power-of-two scale
}

// load transposes 1 to blockTargets targets into the block, zeroes their
// accumulators and pads the last register block.
//
//dashmm:noalloc
func (blk *pairBlock) load(tpts []geom.Point) {
	n := len(tpts)
	blk.n = n
	for i, t := range tpts {
		blk.x[i], blk.y[i], blk.z[i], blk.acc[i] = t.X, t.Y, t.Z, 0
	}
	for i := n; i%blockLanes != 0; i++ {
		blk.x[i], blk.y[i], blk.z[i], blk.acc[i] = blk.x[n-1], blk.y[n-1], blk.z[n-1], 0
	}
}

// r2Min is where the float32 image stops: a float32 loop sums a pair only
// where the narrowed r² is at least r2Min (p2p_amd64.s holds the same
// constant) and otherwise reports the pair unless its float64 coordinates
// are equal, in which case it contributes nothing in either precision. In
// the image the targets lie within 1 of the origin on every axis, so a pair
// r apart carries a narrowing error of at most √3·2⁻²⁴·(2+r) in r: at r ≥
// 2⁻⁸ that is within 5.3e-5 of r. The sources are within 2³¹ of the origin
// and the charges in [2⁻⁶⁴, 2⁶⁴] (narrowSources), so every sum stays in
// float32's normal range.
const r2Min = 0x1p-16

// narrow makes the block's float32 image: the origin o is the centre of the
// targets' bounding box, the scale the power of two that maps its largest
// half-extent into [½, 1). It reports false — run the block on the float64
// loop — when the extent is zero (one target, or all coincident) or not a
// normal float64 far from the ends of its range (a NaN or infinite
// coordinate included).
//
//dashmm:noalloc
func (blk *pairBlock) narrow() bool {
	n := blk.n
	lo := geom.Point{X: blk.x[0], Y: blk.y[0], Z: blk.z[0]}
	hi := lo
	for i := 1; i < n; i++ {
		lo.X, hi.X = min(lo.X, blk.x[i]), max(hi.X, blk.x[i])
		lo.Y, hi.Y = min(lo.Y, blk.y[i]), max(hi.Y, blk.y[i])
		lo.Z, hi.Z = min(lo.Z, blk.z[i]), max(hi.Z, blk.z[i])
	}
	ext := max(hi.X-lo.X, hi.Y-lo.Y, hi.Z-lo.Z) / 2
	if !(ext >= 0x1p-400 && ext <= 0x1p400) { // false for NaN
		return false
	}
	_, e := math.Frexp(ext)
	blk.scale = math.Ldexp(1, -e)
	o := geom.Point{X: lo.X + (hi.X-lo.X)/2, Y: lo.Y + (hi.Y-lo.Y)/2, Z: lo.Z + (hi.Z-lo.Z)/2}
	blk.o = o
	for i := range (n + blockLanes - 1) &^ (blockLanes - 1) { // the padded lanes too
		blk.x32[i] = float32((blk.x[i] - o.X) * blk.scale)
		blk.y32[i] = float32((blk.y[i] - o.Y) * blk.scale)
		blk.z32[i] = float32((blk.z[i] - o.Z) * blk.scale)
	}
	return true
}

// narrow32 is narrow for a float32 loop at λ (0 for Laplace): it also
// reports λ′ = λ/scale, λ in the image, and false where λ′ exceeds
// lambda32Max. It is the rule by which the driver (p2pOn) runs a block in
// float32; pairAt prices by it.
//
//dashmm:noalloc
func (blk *pairBlock) narrow32(lambda float64) (lam float32, ok bool) {
	if !blk.narrow() {
		return 0, false
	}
	l := lambda / blk.scale
	return float32(l), l <= lambda32Max
}

// src32 is one narrowed source of a float32 loop: its coordinates in the
// block's float32 image and half its charge (the loops' Newton step yields
// 2/r).
type src32 struct{ x, y, z, q float32 }

// narrowSources narrows up to subChunk sources into the block's float32
// image. It reports false — run the sub-chunk on the float64 loop — when a
// source lies 2³¹ or more from the origin on an axis of the image, or a
// charge is NaN, infinite or outside [2⁻⁶⁴, 2⁶⁴] in magnitude (zero aside).
//
//dashmm:noalloc
func (blk *pairBlock) narrowSources(src []geom.Point, q []float64, ns []src32) bool {
	o, s := blk.o, blk.scale
	q, ns = q[:len(src)], ns[:len(src)]
	const far, qMax, qMin = 0x1p31, 0x1p64, 0x1p-64
	for i := range src {
		x, y, z, qi := (src[i].X-o.X)*s, (src[i].Y-o.Y)*s, (src[i].Z-o.Z)*s, q[i]
		// Comparisons, not math.Abs: each is false for a NaN.
		if !(x < far && x > -far && y < far && y > -far && z < far && z > -far &&
			(qi >= qMin && qi <= qMax || qi <= -qMin && qi >= -qMax || qi == 0)) {
			return false
		}
		ns[i] = src32{float32(x), float32(y), float32(z), float32(qi * 0.5)}
	}
	return true
}

// widen adds the sub-chunk's float32 partial sums, scaled back, to the
// float64 accumulators.
//
//dashmm:noalloc
func (blk *pairBlock) widen() {
	s := blk.scale
	part := blk.part[:blk.n]
	for i, v := range part {
		blk.acc[i] += float64(v) * s
	}
}

// pairLoop names the pair loop a kernel binds at construction. A float64
// pair loop adds to blk.acc[i], for each target i < blk.n, the sum over the
// sources of q·G(|t_i − s|) in source order; a coincident pair (r² = 0)
// contributes nothing. Lanes from blk.n up are scratch.
//
// A float32 loop (narrowed) reads the block's float32 image and sources
// narrowed into it (at most subChunk), and writes their sum per target to
// blk.part, in float32 and source order, for the driver to widen into
// blk.acc. A Yukawa float32 loop also reads λ′ = λ/blk.scale, λ in the
// image. It reports a hazard — and the driver recomputes that block and
// sub-chunk with the loop's float64 twin (wide) — when a pair's narrowed r²
// is below r2Min and its float64 coordinates differ: a pair closer than
// 2⁻⁸ of the block's half-extent, or one that narrowing collapsed. The
// driver does the same for a block or sub-chunk it cannot narrow (narrow,
// narrowSources): NaN or infinite coordinates and charges among them, so
// those propagate as in the float64 loop; and for a Yukawa block whose λ′
// exceeds lambda32Max. So a float32 loop differs from its twin only by the
// rounding of the narrowed arithmetic: per target at most 2⁻¹³ of Σ|q|/r
// over the pairs for Laplace, 2⁻¹² of Σ|q|·e^{−λr}/r plus 2⁻¹¹⁸ of Σ|q|/r
// for Yukawa (p2p32_test.go: pairBound32), in practice a relative L2 error
// of 2e-8 to 4.3e-7 on a leaf-shaped near field (TestFloat32PairOrder, which
// certifies pF32 and lambda32Max by it). The gradient (S2TGrad) has no
// float32 loop.
type pairLoop uint8

const (
	laplaceGo        pairLoop = iota // portable loop: the fallback and the oracle of the other two
	laplaceAVX2                      // p2p_amd64.s: the portable loop's operations, four lanes at a time
	laplaceAVX512                    // p2p_amd64.s: rsqrt estimate + two Newton steps, eight lanes at a time
	laplaceF32AVX2                   // p2p_amd64.s: float32, rsqrt estimate + one Newton step, eight lanes at a time
	laplaceF32AVX512                 // p2p_amd64.s: float32, rsqrt estimate + one Newton step, sixteen lanes at a time
	yukawaGo                         // portable loop: math.Exp, the oracle of the other two
	yukawaAVX2                       // p2p_amd64.s: polynomial exp and an exact divide, four lanes at a time
	yukawaAVX512                     // p2p_amd64.s: polynomial exp and a Newton reciprocal, eight lanes at a time
	yukawaF32AVX2                    // p2p_amd64.s: float32, Laplace's 2/r and a degree-6 exp, eight lanes at a time
	yukawaF32AVX512                  // p2p_amd64.s: float32, Laplace's 2/r and a degree-6 exp, sixteen lanes at a time
)

// String is the name PairKernel reports.
func (l pairLoop) String() string {
	return [...]string{"go", "avx2", "avx512", "avx2-f32", "avx512-f32", "go", "avx2", "avx512", "avx2-f32", "avx512-f32"}[l]
}

// narrowed reports whether l is a float32 loop.
func (l pairLoop) narrowed() bool {
	switch l {
	case laplaceF32AVX2, laplaceF32AVX512, yukawaF32AVX2, yukawaF32AVX512:
		return true
	}
	return false
}

// wide is l's float64 twin: l itself for a float64 loop.
func (l pairLoop) wide() pairLoop {
	switch l {
	case laplaceF32AVX2:
		return laplaceAVX2
	case laplaceF32AVX512:
		return laplaceAVX512
	case yukawaF32AVX2:
		return yukawaAVX2
	case yukawaF32AVX512:
		return yukawaAVX512
	}
	return l
}

// pF32 is the largest order at which NewLaplace and NewYukawa bind a
// float32 pair loop (where the CPU has one): OrderForDigits(5) = 14. Five
// digits is the most whose accuracy TestFloat32PairOrder certifies with a
// tenfold margin for the near field of a cube and a sphere with charges of
// both signs, for Yukawa at λ′ up to lambda32Max; above it the float64
// loops bind.
var pF32 = OrderForDigits(5)

// lambda32Max is Λ, the largest λ′ = λ/blk.scale — λ in a block's float32
// image, between one and two times λ times the targets' half-extent — at
// which a Yukawa block runs its float32 loop. Narrowing moves r by up to
// ≈ 2⁻²³ of the image, which e^{−λ′r} turns into a relative error of λ′
// times that; TestFloat32PairOrder certifies five digits at λ′ = Λ, and a
// block beyond it runs the float64 twin.
const lambda32Max = 1

// pairFor is the pair loop a kernel of order p binds: its float32 loop f32
// at p ≤ pF32, where the CPU has one, else its float64 loop f64.
func pairFor(p int, f32, f64 pairLoop) pairLoop {
	if p <= pF32 {
		return f32
	}
	return f64
}

// PairKernel names the implementation of k's near-field pair loop:
// "avx512-f32" or "avx2-f32" (a kernel of order ≤ pF32 where the CPU runs a
// float32 loop), "avx512", "avx2" or "go" (the portable loop; also any
// kernel that is not built in). It follows the CPU, probed once per
// process, and the order; nothing else selects it.
func PairKernel(k Kernel) string {
	if b, ok := k.(*base); ok {
		return b.pair.String()
	}
	return "go"
}

// P2P implements BatchKernel: the near-field lists of one target leaf
// applied block by block. Coincident pairs are skipped.
//
//dashmm:noalloc
func (b *base) P2P(chunks []P2PChunk, tpts []geom.Point, pot []float64) {
	b.p2pOn(b.pair, chunks, tpts, pot)
}

// S2T implements Kernel: P2P with one chunk. Coincident source/target pairs
// contribute nothing, which makes the traditional identical-ensemble N-body
// case (where each point is both a source and a target) come out right.
//
//dashmm:noalloc
func (b *base) S2T(spts []geom.Point, q []float64, tpts []geom.Point, pot []float64) {
	chunk := [1]P2PChunk{{Pts: spts, Q: q}}
	b.p2pOn(b.pair, chunk[:], tpts, pot)
}

// S2TFloat64 is k's S2T on the float64 twin of the pair loop it bound
// (pairLoop.wide): the same potentials to float64 rounding whatever the
// kernel's order, for an oracle (baseline.Direct). A kernel that is not
// built in runs its own S2T.
func S2TFloat64(k Kernel, spts []geom.Point, q []float64, tpts []geom.Point, pot []float64) {
	b, ok := k.(*base)
	if !ok {
		k.S2T(spts, q, tpts, pot)
		return
	}
	chunk := [1]P2PChunk{{Pts: spts, Q: q}}
	b.p2pOn(b.pair.wide(), chunk[:], tpts, pot)
}

// p2pOn is the driver on pair loop l. The dispatch (pairsOn, pairs32On) is
// a switch and not a function value so that the block stays on the
// driver's stack: an argument of an indirect call escapes.
//
//dashmm:noalloc
func (b *base) p2pOn(l pairLoop, chunks []P2PChunk, tpts []geom.Point, pot []float64) {
	var blk pairBlock
	var ns [subChunk]src32
	for len(tpts) > 0 {
		n := min(len(tpts), blockTargets)
		blk.load(tpts[:n])
		lam, narrow := float32(0), false
		if l.narrowed() {
			lam, narrow = blk.narrow32(b.lambda)
		}
		for _, ch := range chunks {
			src, q := ch.Pts, ch.Q[:len(ch.Pts)] // the assembly trusts the lengths
			if !narrow {
				pairsOn(l.wide(), b.lambda, src, q, &blk)
				continue
			}
			for len(src) > 0 {
				m := min(len(src), subChunk)
				if blk.narrowSources(src[:m], q[:m], ns[:m]) && pairs32On(l, lam, ns[:m], src[:m], &blk) {
					blk.widen()
				} else {
					pairsOn(l.wide(), b.lambda, src[:m], q[:m], &blk)
				}
				src, q = src[m:], q[m:]
			}
		}
		for i := range pot[:n] {
			pot[i] += blk.acc[i]
		}
		tpts, pot = tpts[n:], pot[n:]
	}
}

// laplacePairs is the portable 1/r pair loop: one square root and one
// divide per pair. The conversions forbid fusing the multiplies into the
// adds, so the loop computes the same bits on every platform and the AVX2
// loop, which repeats its operations in its order, can be held to them.
func laplacePairs(src []geom.Point, q []float64, blk *pairBlock) {
	x, y, z, acc := blk.x[:blk.n], blk.y[:blk.n], blk.z[:blk.n], blk.acc[:blk.n]
	for si, s := range src {
		qv := q[si]
		for ti := range x {
			dx := x[ti] - s.X
			dy := y[ti] - s.Y
			dz := z[ti] - s.Z
			r2 := float64(dx*dx) + float64(dy*dy) + float64(dz*dz)
			if r2 == 0 {
				continue
			}
			acc[ti] += qv / math.Sqrt(r2)
		}
	}
}

// yukawaPairs is the portable e^{-lambda r}/r pair loop: one math.Sqrt, one
// math.Exp and one divide per pair.
func yukawaPairs(lambda float64, src []geom.Point, q []float64, blk *pairBlock) {
	x, y, z, acc := blk.x[:blk.n], blk.y[:blk.n], blk.z[:blk.n], blk.acc[:blk.n]
	for si, s := range src {
		qv := q[si]
		for ti := range x {
			dx := x[ti] - s.X
			dy := y[ti] - s.Y
			dz := z[ti] - s.Z
			r2 := dx*dx + dy*dy + dz*dz
			if r2 == 0 {
				continue
			}
			r := math.Sqrt(r2)
			acc[ti] += qv * math.Exp(-lambda*r) / r
		}
	}
}
