// Package sphharm supplies the special functions underlying the multipole
// kernels: associated Legendre functions, orthonormal complex spherical
// harmonics, Gauss–Legendre quadrature, and modified spherical Bessel
// functions i_n and k_n.
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

// Coef holds the orthonormalization constants K_n^m for n <= p.
type Coef struct {
	P int
	k []float64 // K_n^m at TriIndex(n, m), m >= 0
}

// NewCoef precomputes the K_n^m constants up to order p.
func NewCoef(p int) *Coef {
	c := &Coef{P: p, k: make([]float64, TriSize(p))}
	for n := 0; n <= p; n++ {
		for m := 0; m <= n; m++ {
			// K = sqrt((2n+1)/(4 pi) * (n-m)!/(n+m)!), computed as a product
			// to avoid factorial overflow.
			v := float64(2*n+1) / (4 * math.Pi)
			for k := n - m + 1; k <= n+m; k++ {
				v /= float64(k)
			}
			c.k[TriIndex(n, m)] = math.Sqrt(v)
		}
	}
	return c
}

// K returns K_n^{|m|}.
func (c *Coef) K(n, m int) float64 {
	if m < 0 {
		m = -m
	}
	return c.k[TriIndex(n, m)]
}

// Ynm evaluates the full set of orthonormal spherical harmonics
// Y_n^m(theta, phi) for 0 <= n <= p, -n <= m <= n at the direction given by
// cosTheta and phi, storing Y_n^m at out[SqIndex(n, m)]. scratch must have
// length at least TriSize(p); out at least SqSize(p).
func (c *Coef) Ynm(cosTheta, phi float64, out []complex128, scratch []float64) {
	// The packed half goes to the tail of out and is scattered from there in
	// ascending order: the tail starts TriSize(p-1) slots in, so no write at
	// SqIndex(n, ±m) passes the packed slot being read.
	sq := SqSize(c.P)
	packed := out[sq-TriSize(c.P) : sq]
	c.YnmPacked(cosTheta, phi, packed, scratch)
	for n := 0; n <= c.P; n++ {
		for m := 0; m <= n; m++ {
			y := packed[TriIndex(n, m)]
			// No Condon–Shortley phase: Y_n^{-m} = conj(Y_n^m).
			out[SqIndex(n, -m)] = cmplx.Conj(y)
			out[SqIndex(n, m)] = y
		}
	}
}

// YnmPacked evaluates the m >= 0 half, Y_n^m at out[TriIndex(n, m)] — all a
// real field needs, the other half being the conjugate. scratch and out must
// have length at least TriSize(p).
func (c *Coef) YnmPacked(cosTheta, phi float64, out []complex128, scratch []float64) {
	p := c.P
	AssocLegendre(p, cosTheta, scratch)
	// e^{i m phi} for m = 0..p, built incrementally.
	sin, cos := math.Sincos(phi)
	eiphi := complex(cos, sin)
	em := complex(1, 0)
	for m := 0; m <= p; m++ {
		for n := m; n <= p; n++ {
			t := TriIndex(n, m)
			v := c.k[t] * scratch[t]
			out[t] = complex(v*real(em), v*imag(em))
		}
		em *= eiphi
	}
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

// besselScratch is the stack buffer covering the Miller-recurrence scratch
// of every argument the FMM operators produce (start = p + 16 + x for the
// unscaled recurrence): the downward passes stay allocation-free on the hot
// M->L projection path, with a heap fallback for extreme arguments.
const besselScratch = 192

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
	// Miller's algorithm: run the downward recurrence
	// f_{n-1} = f_{n+1} + (2n+1)/x f_n from a start order well above p,
	// then scale so that f_0 matches sinh(x)/x.
	start := p + 16 + int(x)
	fp1, fn := 0.0, 1.0
	var buf [besselScratch]float64
	vals := buf[:]
	if start+1 > len(buf) {
		vals = make([]float64, start+1)
	} else {
		vals = vals[:start+1]
	}
	vals[start] = fn
	for n := start; n >= 1; n-- {
		fm1 := fp1 + float64(2*n+1)/x*fn
		fp1, fn = fn, fm1
		vals[n-1] = fn
		if math.Abs(fn) > 1e250 {
			// Rescale to avoid overflow.
			for k := n - 1; k <= start; k++ {
				vals[k] *= 1e-250
			}
			fn *= 1e-250
			fp1 *= 1e-250
		}
	}
	var i0 float64
	if x > 300 {
		i0 = math.Exp(x-math.Log(2*x)) * (1 - math.Exp(-2*x))
	} else {
		i0 = math.Sinh(x) / x
	}
	scale := i0 / vals[0]
	for n := 0; n <= p; n++ {
		out[n] = vals[n] * scale
	}
}

// BesselK fills out[n] with the modified spherical Bessel functions of the
// second kind k_n(x) = sqrt(pi/(2x)) K_{n+1/2}(x) for n = 0..p using the
// stable upward recurrence from k_0 = (pi/2) e^{-x}/x and
// k_1 = (pi/2) e^{-x} (1/x + 1/x^2). x must be positive.
func BesselK(p int, x float64, out []float64) {
	e := math.Exp(-x) * math.Pi / 2
	out[0] = e / x
	if p == 0 {
		return
	}
	out[1] = e * (1/x + 1/(x*x))
	for n := 2; n <= p; n++ {
		out[n] = out[n-2] + float64(2*n-1)/x*out[n-1]
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
	start := p + 16 + int(math.Sqrt(x))
	fp1, fn := 0.0, 1.0
	var buf [besselScratch]float64
	vals := buf[:]
	if start+1 > len(buf) {
		vals = make([]float64, start+1)
	} else {
		vals = vals[:start+1]
	}
	vals[start] = fn
	for n := start; n >= 1; n-- {
		fm1 := fp1 + float64(2*n+1)/x*fn
		fp1, fn = fn, fm1
		vals[n-1] = fn
		if math.Abs(fn) > 1e250 {
			for k := n - 1; k <= start; k++ {
				vals[k] *= 1e-250
			}
			fn *= 1e-250
			fp1 *= 1e-250
		}
	}
	i0 := (1 - math.Exp(-2*x)) / (2 * x)
	scale := i0 / vals[0]
	for n := 0; n <= p; n++ {
		out[n] = vals[n] * scale
	}
}
