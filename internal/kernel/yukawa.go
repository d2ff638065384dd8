package kernel

import (
	"fmt"
	"math"

	"repro/internal/sphharm"
)

// NewYukawa returns the scale-variant Yukawa (screened Coulomb) kernel
// e^{-lambda r}/r with screening parameter lambda > 0 and truncation order
// p.
//
// The radial basis is normalized so it degenerates smoothly to the Laplace
// basis as lambda -> 0:
//
//	R_n(r) = i_n(lambda r) (2n+1)!! / lambda^n        (-> r^n)
//	O_n(r) = k_n(lambda r) 2 lambda^{n+1} / (pi (2n-1)!!)  (-> r^{-n-1})
//
// With this normalization the Gegenbauer addition theorem takes exactly the
// Laplace form with the same moment prefactor c_n = 4 pi/(2n+1), so the
// whole spherical-harmonic engine is shared and well conditioned at every
// tree depth.
//
// At p ≤ pF32 (five digits) its near field runs a float32 pair loop where
// the CPU has one (p2p.go, PairKernel names it).
func NewYukawa(p int, lambda float64) Kernel {
	return newYukawa(p, lambda, pairFor(p, bestYukawaPair32, bestYukawaPair))
}

// NewYukawaFloat64 is NewYukawa with its near field on the float64 pair
// loop at every order: for a test that holds a low-order near field to
// float64 rounding.
func NewYukawaFloat64(p int, lambda float64) Kernel { return newYukawa(p, lambda, bestYukawaPair) }

// New returns the kernel a name asks for at truncation order p: "laplace"
// (NewLaplace; lambda is ignored) or "yukawa" (NewYukawa, lambda positive
// and finite).
func New(name string, p int, lambda float64) (Kernel, error) {
	switch name {
	case "laplace":
		return NewLaplace(p), nil
	case "yukawa":
		if !(lambda > 0) || math.IsInf(lambda, 0) {
			return nil, fmt.Errorf("invalid lambda %v", lambda)
		}
		return NewYukawa(p, lambda), nil
	}
	return nil, fmt.Errorf("unknown kernel %q (want laplace or yukawa)", name)
}

func newYukawa(p int, lambda float64, pair pairLoop) Kernel {
	if lambda <= 0 {
		panic("kernel: Yukawa lambda must be positive")
	}
	// The two scale rows, (2n+1)!!/lambda^n and 2 lambda^{n+1}/(pi (2n-1)!!),
	// are fixed per kernel: the radial functions multiply by them.
	cn := make([]float64, p+1)
	regScale := make([]float64, p+1)
	outScale := make([]float64, p+1)
	dfOdd := 1.0 // (2n-1)!!, starting from (-1)!! = 1
	ln := 1.0    // lambda^n
	for n := 0; n <= p; n++ {
		cn[n] = 4 * math.Pi / float64(2*n+1)
		outScale[n] = 2 * ln * lambda / (math.Pi * dfOdd)
		dfOdd *= float64(2*n + 1)
		regScale[n] = dfOdd / ln
		ln *= lambda
	}
	b := newBase("yukawa", p,
		func(r float64, out []float64) { // R_n = i_n(lr) (2n+1)!!/l^n
			sphharm.BesselI(p, lambda*r, out)
			for n, s := range regScale {
				out[n] *= s
			}
		},
		func(r float64, out []float64) { // O_n = k_n(lr) 2 l^{n+1}/(pi (2n-1)!!)
			sphharm.BesselK(p, lambda*r, out)
			for n, s := range outScale {
				out[n] *= s
			}
		},
		cn)
	b.directF = func(r float64) float64 { return math.Exp(-lambda*r) / r }
	b.gradF = func(r float64) float64 {
		// d/dr e^{-lr}/r = -e^{-lr} (l r + 1) / r^2
		return -math.Exp(-lambda*r) * (lambda*r + 1) / (r * r)
	}
	b.pair, b.lambda = pair, lambda
	b.regScale, b.outScale = regScale, outScale
	b.pwNodes = func(side float64) boxRule { return yukawaNodes(lambda * side) }
	b.wsp = newWSChan()
	return b
}
