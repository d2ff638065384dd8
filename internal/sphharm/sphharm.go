// Package sphharm supplies the special functions underlying the multipole
// kernels: orthonormal complex spherical harmonics (evaluated at a unit
// vector by a Cartesian recurrence, YnmPackedXYZ; the associated Legendre
// functions remain as its test oracle), Gauss–Legendre quadrature, and
// modified spherical Bessel functions i_n and k_n.
//
// Spherical-harmonic convention: Y_n^m(theta, phi) =
// K_n^m P_n^{|m|}(cos theta) e^{i m phi} with
// K_n^m = sqrt((2n+1)/(4 pi) * (n-|m|)!/(n+|m|)!) and no Condon–Shortley
// phase; the basis is orthonormal on the unit sphere and satisfies the
// addition theorem sum_m Y_n^m(a) conj(Y_n^m(b)) = (2n+1)/(4 pi) P_n(cos g).
package sphharm

import (
	"math"
	"math/cmplx"
)

// Legendre fills out[n] with the Legendre polynomials P_n(x) for n = 0..p.
// out must have length at least p+1.
func Legendre(p int, x float64, out []float64) {
	out[0] = 1
	if p == 0 {
		return
	}
	out[1] = x
	for n := 2; n <= p; n++ {
		out[n] = (float64(2*n-1)*x*out[n-1] - float64(n-1)*out[n-2]) / float64(n)
	}
}

// AssocLegendre computes the associated Legendre functions P_n^m(x) without
// the Condon–Shortley phase for 0 <= m <= n <= p, storing P_n^m at
// out[TriIndex(n, m)]. out must have length at least TriSize(p).
// x must lie in [-1, 1].
func AssocLegendre(p int, x float64, out []float64) {
	somx2 := math.Sqrt((1 - x) * (1 + x)) // sin(theta), non-negative
	// Diagonal: P_m^m = (2m-1)!! (sin theta)^m  (no (-1)^m phase).
	pmm := 1.0
	out[TriIndex(0, 0)] = 1
	for m := 1; m <= p; m++ {
		pmm *= float64(2*m-1) * somx2
		out[TriIndex(m, m)] = pmm
	}
	// First superdiagonal: P_{m+1}^m = (2m+1) x P_m^m.
	for m := 0; m < p; m++ {
		out[TriIndex(m+1, m)] = float64(2*m+1) * x * out[TriIndex(m, m)]
	}
	// Upward recurrence in n for fixed m.
	for m := 0; m <= p; m++ {
		for n := m + 2; n <= p; n++ {
			out[TriIndex(n, m)] = (float64(2*n-1)*x*out[TriIndex(n-1, m)] -
				float64(n+m-1)*out[TriIndex(n-2, m)]) / float64(n-m)
		}
	}
}

// TriIndex maps (n, m) with 0 <= m <= n to a linear index into the packed
// lower-triangular layout used by AssocLegendre.
func TriIndex(n, m int) int { return n*(n+1)/2 + m }

// TriSize is the packed size needed for orders up to p inclusive.
func TriSize(p int) int { return (p + 1) * (p + 2) / 2 }

// Coef holds, per truncation order p, the orthonormalization constants
// K_n^m and the coefficients of the Cartesian recurrence that evaluates
// Y_n^m with them folded in (YnmPackedXYZ).
type Coef struct {
	P   int
	k   []float64 // K_n^m at TriIndex(n, m), m >= 0
	rec []recStep // the recurrence's step into (n, m), at TriIndex(n, m)
}

// recStep is one step of the recurrence: (a_n^m, b_n^m) for m < n, (d_n, 0)
// on the diagonal m = n.
type recStep struct{ a, b float64 }

// NewCoef precomputes the K_n^m constants and the recurrence up to order p.
func NewCoef(p int) *Coef {
	c := &Coef{P: p, k: make([]float64, TriSize(p)), rec: make([]recStep, TriSize(p))}
	for n := 0; n <= p; n++ {
		for m := 0; m <= n; m++ {
			// K = sqrt((2n+1)/(4 pi) * (n-m)!/(n+m)!), computed as a product
			// to avoid factorial overflow.
			v := float64(2*n+1) / (4 * math.Pi)
			for k := n - m + 1; k <= n+m; k++ {
				v /= float64(k)
			}
			c.k[TriIndex(n, m)] = math.Sqrt(v)
			fn, fm := float64(n), float64(m)
			st := &c.rec[TriIndex(n, m)]
			switch {
			case m == n && n > 0:
				st.a = math.Sqrt((2*fn + 1) / (2 * fn))
			case m < n:
				st.a = math.Sqrt((4*fn*fn - 1) / ((fn - fm) * (fn + fm)))
				st.b = math.Sqrt((2*fn + 1) * ((fn-1)*(fn-1) - fm*fm) / ((2*fn - 3) * (fn - fm) * (fn + fm)))
			}
		}
	}
	return c
}

// Step returns the coefficients of YnmPackedXYZ's step into packed slot i =
// TriIndex(n, m): (a_n^m, b_n^m) for m < n, (d_n, 0) on the diagonal and
// (0, 0) at slot 0, for vector forms of the recurrence that run it on
// several directions at once.
func (c *Coef) Step(i int) (a, b float64) { return c.rec[i].a, c.rec[i].b }

// K returns K_n^{|m|}.
func (c *Coef) K(n, m int) float64 {
	if m < 0 {
		m = -m
	}
	return c.k[TriIndex(n, m)]
}

// Ynm evaluates the full set of orthonormal spherical harmonics
// Y_n^m(theta, phi) for 0 <= n <= p, -n <= m <= n at the direction given by
// cosTheta and phi, storing Y_n^m at out[SqIndex(n, m)]. out must have
// length at least SqSize(p); scratch is not used (the evaluator needs none)
// and may be nil.
func (c *Coef) Ynm(cosTheta, phi float64, out []complex128, scratch []float64) {
	// The packed half goes to the tail of out and is scattered from there in
	// ascending order: the tail starts TriSize(p-1) slots in, so no write at
	// SqIndex(n, ±m) passes the packed slot being read.
	sq := SqSize(c.P)
	packed := out[sq-TriSize(c.P) : sq]
	c.YnmPacked(cosTheta, phi, packed)
	for n := 0; n <= c.P; n++ {
		row := packed[TriIndex(n, 0) : TriIndex(n, 0)+n+1]
		full := out[n*n : n*n+2*n+1] // m = -n..n
		for m, y := range row {
			// No Condon–Shortley phase: Y_n^{-m} = conj(Y_n^m).
			full[n-m] = cmplx.Conj(y)
			full[n+m] = y
		}
	}
}

// YnmPacked evaluates the m >= 0 half, Y_n^m at out[TriIndex(n, m)] — all a
// real field needs, the other half being the conjugate — at the direction
// given by cosTheta and phi. out must have length at least TriSize(p).
func (c *Coef) YnmPacked(cosTheta, phi float64, out []complex128) {
	sin, cos := math.Sincos(phi)
	st := math.Sqrt((1 - cosTheta) * (1 + cosTheta))
	c.YnmPackedXYZ(st*cos, st*sin, cosTheta, out)
}

// YnmPackedXYZ evaluates the m >= 0 half, Y_n^m at out[TriIndex(n, m)], at
// the unit vector (x, y, z) (Direction makes one), without an angle: there
// sin(theta) e^{i phi} = x + iy and cos(theta) = z, so
//
//	Y_0^0 = K_0^0,
//	Y_n^n = d_n (x + iy) Y_{n-1}^{n-1},
//	Y_n^m = a_n^m z Y_{n-1}^m - b_n^m Y_{n-2}^m    (m < n; b_{m+1}^m = 0),
//
// with d_n = sqrt((2n+1)/(2n)), a_n^m = sqrt((4n^2-1)/(n^2-m^2)) (sqrt(2n+1)
// at m = n-1) and b_n^m = sqrt((2n+1)((n-1)^2-m^2)/((2n-3)(n^2-m^2))): the
// associated Legendre recurrences with K_n^m folded into real coefficients.
// Nothing is divided and nothing is rounded into an angle — a direction near
// the z-axis keeps its x + iy to the last bit, where sqrt((1-z)(1+z)) would
// not. Row n reads rows n-1 and n-2 only, so its entries are independent of
// each other. out must have length at least TriSize(p).
//
//dashmm:noalloc
func (c *Coef) YnmPackedXYZ(x, y, z float64, out []complex128) {
	p := c.P
	out = out[:TriSize(p)]
	rec := c.rec[:len(out)]
	y00 := c.k[0]
	out[0] = complex(y00, 0)
	if p == 0 {
		return
	}
	out[1] = complex(rec[1].a*z*y00, 0)
	out[2] = complex(rec[2].a*x*y00, rec[2].a*y*y00)
	for n := 2; n <= p; n++ {
		row := TriIndex(n, 0)
		prev2 := out[row-2*n+1 : row-n] // row n-2: m < n-1
		prev := out[row-n : row]        // row n-1
		cur := out[row : row+n+1]
		steps := rec[row : row+n+1]
		ymm := prev[n-1] // Y_{n-1}^{n-1}
		az, d := steps[n-1].a*z, steps[n].a
		cur[n-1] = complex(az*real(ymm), az*imag(ymm))
		cur[n] = complex(d*(x*real(ymm)-y*imag(ymm)), d*(x*imag(ymm)+y*real(ymm)))
		k := len(prev2)
		prev, cur, steps = prev[:k], cur[:k], steps[:k]
		for m, y2 := range prev2 {
			y1, st := prev[m], steps[m]
			az := st.a * z
			cur[m] = complex(az*real(y1)-st.b*real(y2), az*imag(y1)-st.b*imag(y2))
		}
	}
}

// Direction returns the unit vector along (x, y, z) and the length r: the
// arguments of YnmPackedXYZ and of a radial function. The zero vector maps
// to the north pole (0, 0, 1), where every Y_n^m with m > 0 vanishes; a NaN
// coordinate gives a NaN direction.
func Direction(x, y, z float64) (ux, uy, uz, r float64) {
	r = math.Sqrt(x*x + y*y + z*z)
	if r == 0 {
		return 0, 0, 1, 0
	}
	inv := 1 / r
	return x * inv, y * inv, z * inv, r
}

// SqIndex maps (n, m) with -n <= m <= n to a linear index in the dense
// (p+1)^2 layout: n^2 + n + m.
func SqIndex(n, m int) int { return n*n + n + m }

// SqSize is the dense size needed for orders up to p inclusive.
func SqSize(p int) int { return (p + 1) * (p + 1) }

// GaussLegendre returns the n nodes and weights of Gauss–Legendre quadrature
// on [-1, 1], computed by Newton iteration on P_n.
func GaussLegendre(n int) (x, w []float64) {
	x = make([]float64, n)
	w = make([]float64, n)
	for i := 0; i < (n+1)/2; i++ {
		// Initial guess (Abramowitz & Stegun 25.4.29 style).
		t := math.Cos(math.Pi * (float64(i) + 0.75) / (float64(n) + 0.5))
		var pp float64
		for it := 0; it < 100; it++ {
			p0, p1 := 1.0, t
			for k := 2; k <= n; k++ {
				p0, p1 = p1, (float64(2*k-1)*t*p1-float64(k-1)*p0)/float64(k)
			}
			if n == 1 {
				p1 = t
				p0 = 1
			}
			pp = float64(n) * (t*p1 - p0) / (t*t - 1)
			dt := p1 / pp
			t -= dt
			if math.Abs(dt) < 1e-15 {
				break
			}
		}
		x[i] = -t
		x[n-1-i] = t
		w[i] = 2 / ((1 - t*t) * pp * pp)
		w[n-1-i] = w[i]
	}
	if n%2 == 1 && n > 1 {
		// Ensure the central node is exactly zero for symmetry.
		x[n/2] = 0
	}
	return x, w
}

// BesselI fills out[n] with the modified spherical Bessel functions of the
// first kind i_n(x) = sqrt(pi/(2x)) I_{n+1/2}(x) for n = 0..p, using
// downward (Miller) recurrence normalized by i_0 = sinh(x)/x. out must have
// length at least p+1. For x = 0, i_0 = 1 and i_n = 0 for n > 0.
func BesselI(p int, x float64, out []float64) {
	if x == 0 {
		out[0] = 1
		for n := 1; n <= p; n++ {
			out[n] = 0
		}
		return
	}
	// For tiny x, use the leading series term i_n ~ x^n / (2n+1)!!.
	if x < 1e-8 {
		df, xp := 1.0, 1.0
		for n := 0; n <= p; n++ {
			out[n] = xp / df
			xp *= x
			df *= float64(2*n + 3)
		}
		return
	}
	inv := 1 / x
	millerDown(p, p+16+int(x), inv, out)
	var i0 float64
	if x > 300 {
		i0 = math.Exp(x-math.Log(2*x)) * (1 - math.Exp(-2*x))
	} else {
		i0 = math.Sinh(x) * inv
	}
	scale := i0 / out[0]
	for n := 0; n <= p; n++ {
		out[n] *= scale
	}
}

// millerDown runs Miller's downward recurrence
// f_{n-1} = f_{n+1} + (2n+1)/x f_n from f_start = 1, f_{start+1} = 0 and
// leaves f_0..f_p, unnormalized, in out: the caller scales them so f_0
// matches its i_0. inv is 1/x, taken once so the recurrence multiplies;
// only the orders asked for are stored, the ones above p run in registers.
func millerDown(p, start int, inv float64, out []float64) {
	out = out[:p+1]
	fp1, fn := 0.0, 1.0
	for n := start; n >= 1; n-- {
		fp1, fn = fn, fp1+float64(2*n+1)*inv*fn
		if n <= len(out) {
			out[n-1] = fn
		}
		if math.Abs(fn) > 1e250 {
			// Rescale to avoid overflow: every value stored so far too.
			for k := n - 1; k < len(out); k++ {
				out[k] *= 1e-250
			}
			fn *= 1e-250
			fp1 *= 1e-250
		}
	}
}

// BesselK fills out[n] with the modified spherical Bessel functions of the
// second kind k_n(x) = sqrt(pi/(2x)) K_{n+1/2}(x) for n = 0..p using the
// stable upward recurrence from k_0 = (pi/2) e^{-x}/x and
// k_1 = (pi/2) e^{-x} (1/x + 1/x^2), multiplying by 1/x. x must be
// positive.
func BesselK(p int, x float64, out []float64) {
	e := math.Exp(-x) * math.Pi / 2
	inv := 1 / x
	out[0] = e * inv
	if p == 0 {
		return
	}
	out[1] = e * (inv + inv*inv)
	for n := 2; n <= p; n++ {
		out[n] = out[n-2] + float64(2*n-1)*inv*out[n-1]
	}
}

// BesselIScaled fills out[n] with e^{-x} i_n(x), which stays representable
// for large x where i_n itself overflows.
func BesselIScaled(p int, x float64, out []float64) {
	if x < 300 {
		BesselI(p, x, out)
		s := math.Exp(-x)
		for n := 0; n <= p; n++ {
			out[n] *= s
		}
		return
	}
	// Downward recurrence directly on the scaled values; the scaled i_0 is
	// (1 - e^{-2x}) / (2x).
	millerDown(p, p+16+int(math.Sqrt(x)), 1/x, out)
	scale := (1 - math.Exp(-2*x)) / (2 * x) / out[0]
	for n := 0; n <= p; n++ {
		out[n] *= scale
	}
}
