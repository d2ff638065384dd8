//go:build !purego

package kernel

import "repro/internal/geom"

// bestLaplacePair and bestYukawaPair are the fastest float64 pair loops of
// each kernel this CPU and operating system run, bestLaplacePair32 and
// bestYukawaPair32 the fastest at an order that allows float32
// (pairFor).
var bestLaplacePair, bestLaplacePair32, bestYukawaPair, bestYukawaPair32 = probePairLoops()

// cpuVector is what this CPU and operating system offer the vector loops —
// the pair loops here and the dense kernel (dense_amd64.go) — probed once
// per process.
var cpuVector = probeVector()

type vectorFeatures struct {
	avx2, fma, avx512 bool // avx2 and avx512 include the OS saving their registers
}

func probeVector() (f vectorFeatures) {
	const (
		fma, osxsave, avx = 1 << 12, 1 << 27, 1 << 28 // CPUID.1:ECX
		avx2, avx512f     = 1 << 5, 1 << 16           // CPUID.7.0:EBX
		ymm, zmm          = 0x6, 0xe6                 // XCR0: state the OS saves (zmm includes the opmasks)
	)
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, c1, _ := cpuid(1, 0)
	if maxLeaf < 7 || c1&osxsave == 0 || c1&avx == 0 {
		return f
	}
	_, b7, _, _ := cpuid(7, 0)
	xcr0 := xgetbv()
	f.avx512 = b7&avx512f != 0 && xcr0&zmm == zmm
	f.avx2 = b7&avx2 != 0 && xcr0&ymm == ymm
	f.fma = c1&fma != 0
	return f
}

func probePairLoops() (laplace, laplace32, yukawa, yukawa32 pairLoop) {
	switch f := cpuVector; {
	case f.avx512:
		return laplaceAVX512, laplaceF32AVX512, yukawaAVX512, yukawaF32AVX512
	case f.avx2 && f.fma:
		return laplaceAVX2, laplaceF32AVX2, yukawaAVX2, yukawaF32AVX2
	case f.avx2:
		return laplaceAVX2, laplaceAVX2, yukawaGo, yukawaGo // the float32 and Yukawa AVX2 loops use FMA
	}
	return laplaceGo, laplaceGo, yukawaGo, yukawaGo
}

// runs reports whether this CPU runs pair loop l.
func (l pairLoop) runs() bool {
	switch f := cpuVector; l {
	case laplaceAVX512, laplaceF32AVX512, yukawaAVX512, yukawaF32AVX512:
		return f.avx512
	case laplaceF32AVX2, yukawaAVX2, yukawaF32AVX2:
		return f.avx2 && f.fma
	case laplaceAVX2:
		return f.avx2
	}
	return true
}

// pairsOn runs the named float64 pair loop; lambda is read by the Yukawa
// ones.
func pairsOn(l pairLoop, lambda float64, src []geom.Point, q []float64, blk *pairBlock) {
	switch l {
	case laplaceAVX512:
		laplacePairsAVX512(src, q, blk)
	case laplaceAVX2:
		laplacePairsAVX2(src, q, blk)
	case yukawaAVX512:
		yukawaPairsAVX512(lambda, src, q, blk)
	case yukawaAVX2:
		yukawaPairsAVX2(lambda, src, q, blk)
	case yukawaGo:
		yukawaPairs(lambda, src, q, blk)
	default:
		laplacePairs(src, q, blk)
	}
}

// pairs32On runs the named float32 pair loop on the narrowed sources ns
// (src are the same sources in float64, for the exact-coincidence check)
// and reports false on a hazard; lam, λ in the block's image, is read by
// the Yukawa ones.
func pairs32On(l pairLoop, lam float32, ns []src32, src []geom.Point, blk *pairBlock) bool {
	src = src[:len(ns)]
	switch l {
	case laplaceF32AVX512:
		return laplacePairs32AVX512(ns, src, blk) == 0
	case yukawaF32AVX512:
		return yukawaPairs32AVX512(lam, ns, src, blk) == 0
	case yukawaF32AVX2:
		return yukawaPairs32AVX2(lam, ns, src, blk) == 0
	}
	return laplacePairs32AVX2(ns, src, blk) == 0
}

// laplacePairsAVX512 computes 1/r as a 14-bit reciprocal-square-root
// estimate refined by two Newton steps: within 2 ulp of 1/math.Sqrt(r²) for
// a normal r², i.e. 1.5e-154 < r < 1.3e154; r² = 0 and an overflowed r²
// contribute nothing, a subnormal r² is outside the domain.
//
//go:noescape
func laplacePairsAVX512(src []geom.Point, q []float64, blk *pairBlock)

// laplacePairsAVX2 is laplacePairs four lanes at a time, bit for bit.
//
//go:noescape
func laplacePairsAVX2(src []geom.Point, q []float64, blk *pairBlock)

// yukawaPairsAVX512 is yukawaPairs eight lanes at a time with a polynomial
// e^t and a Newton reciprocal: within 4 ulp of it per pair where its value
// is normal, for r in the Laplace AVX-512 loop's domain and any λ > 0.
//
//go:noescape
func yukawaPairsAVX512(lambda float64, src []geom.Point, q []float64, blk *pairBlock)

// yukawaPairsAVX2 is the same four lanes at a time, 1/r by an exact divide.
//
//go:noescape
func yukawaPairsAVX2(lambda float64, src []geom.Point, q []float64, blk *pairBlock)

// laplacePairs32AVX512 is the float32 Laplace loop sixteen lanes at a
// time: 1/r as VRSQRT14PS refined by one Newton step, within 3·2⁻²⁴ of 1/√r²
// for the float32 r² (TestFloat32LoopsPerPair). It returns nonzero on a
// hazard (pairLoop), leaving blk.part undefined.
//
//go:noescape
func laplacePairs32AVX512(ns []src32, src []geom.Point, blk *pairBlock) int

// laplacePairs32AVX2 is the same eight lanes at a time from VRSQRTPS's 12
// bits: within 6·2⁻²⁴.
//
//go:noescape
func laplacePairs32AVX2(ns []src32, src []geom.Point, blk *pairBlock) int

// yukawaPairs32AVX512 is the float32 Yukawa loop sixteen lanes at a time:
// laplacePairs32AVX512's w ≈ 2/r, t = −(λ′/2)·r²·w = −λ′r, and e^t by a
// degree-6 polynomial and VSCALEFPS, so that q/2·e^t·w is within
// (3 + 4 + 5·|t|)·2⁻²⁴ of the correctly rounded float32 e^{−λ′r}/r of the
// float32 r² where e^{−λ′r} is at least 2⁻¹²⁵, and within 2⁻¹²⁵/r below
// (TestFloat32LoopsPerPair). It returns nonzero on a hazard (pairLoop),
// leaving blk.part undefined.
//
//go:noescape
func yukawaPairs32AVX512(lam float32, ns []src32, src []geom.Point, blk *pairBlock) int

// yukawaPairs32AVX2 is the same eight lanes at a time from VRSQRTPS's 12
// bits, 2^k added to e^f's exponent field: within (6 + 4 + 8·|t|)·2⁻²⁴,
// and e^t taken as 0 where it is not a normal float32 (t below −86.9).
//
//go:noescape
func yukawaPairs32AVX2(lam float32, ns []src32, src []geom.Point, blk *pairBlock) int

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax uint32)
