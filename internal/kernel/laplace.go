package kernel

import "math"

// NewLaplace returns the scale-invariant Laplace kernel 1/r (the potential
// of electrostatics and Newtonian gravitation) with multipole truncation
// order p. Use OrderForDigits to pick p from an accuracy requirement. At p
// ≤ pF32 (five digits) its near field runs a float32 pair loop where the
// CPU has one (p2p.go, PairKernel names it).
func NewLaplace(p int) Kernel { return newLaplace(p, pairFor(p, bestLaplacePair32, bestLaplacePair)) }

// NewLaplaceFloat64 is NewLaplace with its near field on the float64 pair
// loop at every order: for a test that holds a low-order near field to
// float64 rounding.
func NewLaplaceFloat64(p int) Kernel { return newLaplace(p, bestLaplacePair) }

func newLaplace(p int, pair pairLoop) Kernel {
	cn := make([]float64, p+1)
	for n := 0; n <= p; n++ {
		cn[n] = 4 * math.Pi / float64(2*n+1)
	}
	b := newBase("laplace", p,
		func(r float64, out []float64) { // R_n = r^n
			v := 1.0
			for n := 0; n <= p; n++ {
				out[n] = v
				v *= r
			}
		},
		func(r float64, out []float64) { // O_n = r^{-n-1}
			inv := 1 / r
			v := inv
			for n := 0; n <= p; n++ {
				out[n] = v
				v *= inv
			}
		},
		cn)
	b.directF = func(r float64) float64 { return 1 / r }
	b.gradF = func(r float64) float64 { return -1 / (r * r) }
	b.pair = pair
	rule := laplaceNodes(p)
	b.pwNodes = func(float64) boxRule { return rule }
	b.pwShift = laplaceShiftFor(p)
	b.wsp = newWSChan()
	return b
}
