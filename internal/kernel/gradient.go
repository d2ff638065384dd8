package kernel

import "repro/internal/geom"

// Gradient (field/force) evaluation. Production multipole libraries expose
// the gradient of the potential alongside the potential itself — for the
// Laplace kernel this is the electric field or gravitational acceleration.
// Only the three target-facing operators need gradient forms; everything
// upstream of them is unchanged expansion algebra.
//
// The direct operator uses the analytic kernel derivative. The expansion
// evaluations (M->T, L->T) use symmetric differences of the expansion's
// field with a step proportional to the target's distance from the
// expansion center; the differencing error is far below the expansion
// truncation error at every tested order (see gradient_test.go).

// GradKernel is the gradient part of Kernel: the three target-facing
// operators with the potential's gradient.
type GradKernel interface {
	// S2TGrad accumulates the direct potential and its gradient at the
	// targets.
	S2TGrad(spts []geom.Point, q []float64, tpts []geom.Point, pot []float64, grad []geom.Point)
	// M2TGrad evaluates a multipole expansion and its gradient at the
	// targets.
	M2TGrad(c geom.Point, m []complex128, tpts []geom.Point, pot []float64, grad []geom.Point)
	// L2TGrad evaluates a local expansion and its gradient at the targets.
	L2TGrad(c geom.Point, l []complex128, tpts []geom.Point, pot []float64, grad []geom.Point)
}

// S2TGrad implements GradKernel using dG/dr supplied by the concrete
// kernel.
func (b *base) S2TGrad(spts []geom.Point, q []float64, tpts []geom.Point, pot []float64, grad []geom.Point) {
	for ti, t := range tpts {
		var acc float64
		var g geom.Point
		for si, s := range spts {
			d := t.Sub(s)
			r := d.Norm()
			if r == 0 {
				continue
			}
			acc += q[si] * b.directF(r)
			// grad G = G'(r) * (t-s)/r
			f := q[si] * b.gradF(r) / r
			g.X += f * d.X
			g.Y += f * d.Y
			g.Z += f * d.Z
		}
		pot[ti] += acc
		grad[ti] = grad[ti].Add(g)
	}
}

// M2TGrad implements GradKernel.
func (b *base) M2TGrad(c geom.Point, m []complex128, tpts []geom.Point, pot []float64, grad []geom.Point) {
	b.expGrad(c, m, b.radOut, tpts, pot, grad)
}

// L2TGrad implements GradKernel.
func (b *base) L2TGrad(c geom.Point, l []complex128, tpts []geom.Point, pot []float64, grad []geom.Point) {
	b.expGrad(c, l, b.radReg, tpts, pot, grad)
}

// expGrad evaluates an expansion and its symmetric-difference gradient.
func (b *base) expGrad(c geom.Point, coeff []complex128, rf radialFunc, tpts []geom.Point, pot []float64, grad []geom.Point) {
	ws := b.wsp.get(b)
	defer b.wsp.put(ws)
	for ti, t := range tpts {
		pot[ti] += b.evalExpansion(ws, c, coeff, rf, t)
		// Step scaled to the evaluation geometry: small relative to the
		// distance from the center, large relative to float64 granularity.
		h := 1e-6 * t.Dist(c)
		if h == 0 {
			h = 1e-12
		}
		inv := 1 / (2 * h)
		var g geom.Point
		g.X = inv * (b.evalExpansion(ws, c, coeff, rf, t.Add(geom.Point{X: h})) -
			b.evalExpansion(ws, c, coeff, rf, t.Sub(geom.Point{X: h})))
		g.Y = inv * (b.evalExpansion(ws, c, coeff, rf, t.Add(geom.Point{Y: h})) -
			b.evalExpansion(ws, c, coeff, rf, t.Sub(geom.Point{Y: h})))
		g.Z = inv * (b.evalExpansion(ws, c, coeff, rf, t.Add(geom.Point{Z: h})) -
			b.evalExpansion(ws, c, coeff, rf, t.Sub(geom.Point{Z: h})))
		grad[ti] = grad[ti].Add(g)
	}
}

// DirectGrad returns the gradient of G(t, s) with respect to t.
func (b *base) DirectGrad(t, s geom.Point) geom.Point {
	d := t.Sub(s)
	r := d.Norm()
	if r == 0 {
		return geom.Point{}
	}
	return d.Scale(b.gradF(r) / r)
}
