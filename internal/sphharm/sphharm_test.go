package sphharm

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLegendreKnownValues(t *testing.T) {
	out := make([]float64, 6)
	Legendre(5, 0.5, out)
	want := []float64{1, 0.5, -0.125, -0.4375, -0.2890625, 0.08984375}
	for n, w := range want {
		if math.Abs(out[n]-w) > 1e-14 {
			t.Errorf("P_%d(0.5) = %v, want %v", n, out[n], w)
		}
	}
}

func TestLegendreEndpoints(t *testing.T) {
	out := make([]float64, 11)
	Legendre(10, 1, out)
	for n := 0; n <= 10; n++ {
		if math.Abs(out[n]-1) > 1e-13 {
			t.Errorf("P_%d(1) = %v, want 1", n, out[n])
		}
	}
	Legendre(10, -1, out)
	for n := 0; n <= 10; n++ {
		want := 1.0
		if n%2 == 1 {
			want = -1
		}
		if math.Abs(out[n]-want) > 1e-13 {
			t.Errorf("P_%d(-1) = %v, want %v", n, out[n], want)
		}
	}
}

func TestAssocLegendreMatchesLegendre(t *testing.T) {
	// P_n^0 must equal P_n.
	p := 12
	tri := make([]float64, TriSize(p))
	leg := make([]float64, p+1)
	for _, x := range []float64{-0.9, -0.3, 0, 0.4, 0.77, 0.999} {
		AssocLegendre(p, x, tri)
		Legendre(p, x, leg)
		for n := 0; n <= p; n++ {
			if math.Abs(tri[TriIndex(n, 0)]-leg[n]) > 1e-12*math.Max(1, math.Abs(leg[n])) {
				t.Errorf("x=%v: P_%d^0 = %v, want %v", x, n, tri[TriIndex(n, 0)], leg[n])
			}
		}
	}
}

func TestAssocLegendreKnownValues(t *testing.T) {
	// Without Condon–Shortley phase: P_1^1 = sin(theta), P_2^1 = 3 x sin,
	// P_2^2 = 3 sin^2.
	x := 0.3
	s := math.Sqrt(1 - x*x)
	tri := make([]float64, TriSize(3))
	AssocLegendre(3, x, tri)
	cases := []struct {
		n, m int
		want float64
	}{
		{1, 1, s},
		{2, 1, 3 * x * s},
		{2, 2, 3 * s * s},
		{3, 3, 15 * s * s * s},
		{3, 1, 1.5 * s * (5*x*x - 1)},
	}
	for _, c := range cases {
		got := tri[TriIndex(c.n, c.m)]
		if math.Abs(got-c.want) > 1e-13 {
			t.Errorf("P_%d^%d(%v) = %v, want %v", c.n, c.m, x, got, c.want)
		}
	}
}

func TestYnmOrthonormality(t *testing.T) {
	// Numerically integrate Y_a conj(Y_b) over the sphere with a product
	// Gauss–Legendre x trapezoid rule and check the identity matrix appears.
	p := 6
	c := NewCoef(p)
	nth := p + 2
	nph := 2*p + 3
	xs, ws := GaussLegendre(nth)
	ylm := make([]complex128, SqSize(p))
	scratch := make([]float64, TriSize(p))
	gram := make([]complex128, SqSize(p)*SqSize(p))
	for i := 0; i < nth; i++ {
		for j := 0; j < nph; j++ {
			phi := 2 * math.Pi * float64(j) / float64(nph)
			c.Ynm(xs[i], phi, ylm, scratch)
			w := ws[i] * 2 * math.Pi / float64(nph)
			for a := 0; a < SqSize(p); a++ {
				for b := 0; b < SqSize(p); b++ {
					gram[a*SqSize(p)+b] += complex(w, 0) * ylm[a] * cmplx.Conj(ylm[b])
				}
			}
		}
	}
	for a := 0; a < SqSize(p); a++ {
		for b := 0; b < SqSize(p); b++ {
			want := complex(0, 0)
			if a == b {
				want = 1
			}
			if cmplx.Abs(gram[a*SqSize(p)+b]-want) > 1e-10 {
				t.Fatalf("gram[%d,%d] = %v, want %v", a, b, gram[a*SqSize(p)+b], want)
			}
		}
	}
}

func TestYnmAdditionTheorem(t *testing.T) {
	// sum_m Y_n^m(a) conj(Y_n^m(b)) = (2n+1)/(4 pi) P_n(cos gamma).
	p := 10
	c := NewCoef(p)
	rng := rand.New(rand.NewSource(7))
	ya := make([]complex128, SqSize(p))
	yb := make([]complex128, SqSize(p))
	scratch := make([]float64, TriSize(p))
	leg := make([]float64, p+1)
	for trial := 0; trial < 20; trial++ {
		ct1 := 2*rng.Float64() - 1
		ph1 := 2 * math.Pi * rng.Float64()
		ct2 := 2*rng.Float64() - 1
		ph2 := 2 * math.Pi * rng.Float64()
		c.Ynm(ct1, ph1, ya, scratch)
		c.Ynm(ct2, ph2, yb, scratch)
		st1 := math.Sqrt(1 - ct1*ct1)
		st2 := math.Sqrt(1 - ct2*ct2)
		cosg := ct1*ct2 + st1*st2*math.Cos(ph1-ph2)
		Legendre(p, cosg, leg)
		for n := 0; n <= p; n++ {
			var sum complex128
			for m := -n; m <= n; m++ {
				sum += ya[SqIndex(n, m)] * cmplx.Conj(yb[SqIndex(n, m)])
			}
			want := float64(2*n+1) / (4 * math.Pi) * leg[n]
			if math.Abs(real(sum)-want) > 1e-11 || math.Abs(imag(sum)) > 1e-11 {
				t.Fatalf("trial %d n=%d: sum=%v want %v", trial, n, sum, want)
			}
		}
	}
}

func TestGaussLegendreExactness(t *testing.T) {
	// n-point Gauss–Legendre is exact for polynomials of degree 2n-1.
	for _, n := range []int{1, 2, 3, 5, 8, 16, 31} {
		x, w := GaussLegendre(n)
		for deg := 0; deg <= 2*n-1; deg++ {
			var got float64
			for i := range x {
				got += w[i] * math.Pow(x[i], float64(deg))
			}
			want := 0.0
			if deg%2 == 0 {
				want = 2 / float64(deg+1)
			}
			if math.Abs(got-want) > 1e-12 {
				t.Errorf("n=%d deg=%d: integral=%v want %v", n, deg, got, want)
			}
		}
	}
}

func TestGaussLegendreWeightsSum(t *testing.T) {
	for _, n := range []int{1, 4, 9, 33, 64} {
		_, w := GaussLegendre(n)
		var s float64
		for _, v := range w {
			s += v
		}
		if math.Abs(s-2) > 1e-12 {
			t.Errorf("n=%d: weight sum %v, want 2", n, s)
		}
	}
}

func TestBesselIKnownValues(t *testing.T) {
	out := make([]float64, 4)
	for _, x := range []float64{0.1, 1, 3, 10} {
		BesselI(3, x, out)
		i0 := math.Sinh(x) / x
		i1 := (x*math.Cosh(x) - math.Sinh(x)) / (x * x)
		i2 := ((x*x+3)*math.Sinh(x) - 3*x*math.Cosh(x)) / (x * x * x)
		for n, want := range []float64{i0, i1, i2} {
			if math.Abs(out[n]-want) > 1e-12*math.Max(1, math.Abs(want)) {
				t.Errorf("i_%d(%v) = %v, want %v", n, x, out[n], want)
			}
		}
	}
}

func TestBesselKKnownValues(t *testing.T) {
	out := make([]float64, 3)
	for _, x := range []float64{0.2, 1, 5, 40} {
		BesselK(2, x, out)
		k0 := math.Pi / 2 * math.Exp(-x) / x
		k1 := math.Pi / 2 * math.Exp(-x) * (1/x + 1/(x*x))
		k2 := math.Pi / 2 * math.Exp(-x) * (1/x + 3/(x*x) + 3/(x*x*x))
		for n, want := range []float64{k0, k1, k2} {
			if math.Abs(out[n]-want) > 1e-12*math.Abs(want) {
				t.Errorf("k_%d(%v) = %v, want %v", n, x, out[n], want)
			}
		}
	}
}

func TestBesselWronskian(t *testing.T) {
	// i_n(x) k_{n+1}(x) + i_{n+1}(x) k_n(x) = pi / (2 x^2).
	p := 15
	iv := make([]float64, p+2)
	kv := make([]float64, p+2)
	for _, x := range []float64{0.05, 0.7, 2, 9, 35, 120} {
		BesselI(p+1, x, iv)
		BesselK(p+1, x, kv)
		want := math.Pi / (2 * x * x)
		for n := 0; n <= p; n++ {
			got := iv[n]*kv[n+1] + iv[n+1]*kv[n]
			if math.Abs(got-want) > 1e-10*want {
				t.Errorf("x=%v n=%d: Wronskian %v, want %v", x, n, got, want)
			}
		}
	}
}

func TestBesselIScaledMatches(t *testing.T) {
	p := 10
	a := make([]float64, p+1)
	b := make([]float64, p+1)
	for _, x := range []float64{0.3, 5, 50, 250, 400, 800} {
		BesselIScaled(p, x, a)
		if x < 290 {
			BesselI(p, x, b)
			s := math.Exp(-x)
			for n := 0; n <= p; n++ {
				if math.Abs(a[n]-b[n]*s) > 1e-12*math.Max(1e-300, math.Abs(b[n]*s)) {
					t.Errorf("x=%v n=%d: scaled %v vs %v", x, n, a[n], b[n]*s)
				}
			}
		}
		// Scaled i_0 closed form.
		want := (1 - math.Exp(-2*x)) / (2 * x)
		if math.Abs(a[0]-want) > 1e-12*want {
			t.Errorf("x=%v: scaled i_0 = %v, want %v", x, a[0], want)
		}
	}
}

func TestBesselRecurrenceProperty(t *testing.T) {
	// Property: i_{n-1} - i_{n+1} = (2n+1)/x i_n for random x.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := 0.05 + 20*rng.Float64()
		p := 8
		iv := make([]float64, p+2)
		BesselI(p+1, x, iv)
		for n := 1; n <= p; n++ {
			lhs := iv[n-1] - iv[n+1]
			rhs := float64(2*n+1) / x * iv[n]
			if math.Abs(lhs-rhs) > 1e-9*math.Max(1e-30, math.Abs(lhs)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestTriSqIndexing(t *testing.T) {
	// The packed layouts must be bijective and in-bounds.
	p := 9
	seen := make(map[int]bool)
	for n := 0; n <= p; n++ {
		for m := 0; m <= n; m++ {
			i := TriIndex(n, m)
			if i < 0 || i >= TriSize(p) || seen[i] {
				t.Fatalf("TriIndex(%d,%d) = %d invalid or duplicate", n, m, i)
			}
			seen[i] = true
		}
	}
	if len(seen) != TriSize(p) {
		t.Fatalf("TriIndex covers %d of %d slots", len(seen), TriSize(p))
	}
	seen = make(map[int]bool)
	for n := 0; n <= p; n++ {
		for m := -n; m <= n; m++ {
			i := SqIndex(n, m)
			if i < 0 || i >= SqSize(p) || seen[i] {
				t.Fatalf("SqIndex(%d,%d) = %d invalid or duplicate", n, m, i)
			}
			seen[i] = true
		}
	}
	if len(seen) != SqSize(p) {
		t.Fatalf("SqIndex covers %d of %d slots", len(seen), SqSize(p))
	}
}

func TestYnmPackedIsTheNonNegativeHalf(t *testing.T) {
	// YnmPacked holds exactly Ynm's m >= 0 values, and Ynm's m < 0 values are
	// their conjugates: the packed half determines the full set. Ynm scatters
	// in place out of its own output buffer, so every order is checked on a
	// poisoned buffer.
	for p := 0; p <= 12; p++ {
		c := NewCoef(p)
		full := make([]complex128, SqSize(p))
		packed := make([]complex128, TriSize(p))
		for _, dir := range [][2]float64{{1, 0}, {-1, 2.5}, {0.3, 1.1}, {-0.77, -2.9}, {0, 4}} {
			for i := range full {
				full[i] = cmplx.NaN()
			}
			c.Ynm(dir[0], dir[1], full, nil)
			c.YnmPacked(dir[0], dir[1], packed)
			for n := 0; n <= p; n++ {
				for m := 0; m <= n; m++ {
					if packed[TriIndex(n, m)] != full[SqIndex(n, m)] {
						t.Errorf("p %d dir %v: packed Y_%d^%d = %v, full %v", p, dir, n, m, packed[TriIndex(n, m)], full[SqIndex(n, m)])
					}
					if full[SqIndex(n, -m)] != cmplx.Conj(full[SqIndex(n, m)]) {
						t.Errorf("p %d dir %v: Y_%d^%d = %v is not the conjugate of %v", p, dir, n, -m, full[SqIndex(n, -m)], full[SqIndex(n, m)])
					}
				}
			}
		}
	}
}

// legendreYnmPacked is the evaluator YnmPackedXYZ replaced, kept as its
// oracle: the associated Legendre functions at cos(theta), K_n^m, and
// e^{i m phi} by repeated multiplication.
func legendreYnmPacked(c *Coef, cosTheta, phi float64, out []complex128) {
	p := c.P
	tri := make([]float64, TriSize(p))
	AssocLegendre(p, cosTheta, tri)
	sin, cos := math.Sincos(phi)
	eiphi := complex(cos, sin)
	em := complex(1, 0)
	for m := 0; m <= p; m++ {
		for n := m; n <= p; n++ {
			t := TriIndex(n, m)
			v := c.k[t] * tri[t]
			out[t] = complex(v*real(em), v*imag(em))
		}
		em *= eiphi
	}
}

// legendreAt is the oracle at the unit vector (x, y, z), reached through
// its angles as the kernels once did.
func legendreAt(c *Coef, x, y, z float64, out []complex128) {
	legendreYnmPacked(c, math.Max(-1, math.Min(1, z)), math.Atan2(y, x), out)
}

// finiteDiff returns max |got - want| over the entries where both are
// finite, relative to the largest finite |want|.
func finiteDiff(got, want []complex128) float64 {
	var num, den float64
	for i := range want {
		if cmplx.IsNaN(got[i]) || cmplx.IsInf(got[i]) || cmplx.IsNaN(want[i]) || cmplx.IsInf(want[i]) {
			continue
		}
		num = math.Max(num, cmplx.Abs(got[i]-want[i]))
		den = math.Max(den, cmplx.Abs(want[i]))
	}
	if den == 0 {
		return num
	}
	return num / den
}

// The Cartesian recurrence against the Legendre evaluator it replaced, at
// every order the daemon serves between 1 and 12 digits' worth, and at the
// directions the angle path handled specially or badly.
func TestYnmCartesianMatchesLegendre(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for _, p := range []int{2, 9, 17, 34} {
		c := NewCoef(p)
		got := make([]complex128, TriSize(p))
		want := make([]complex128, TriSize(p))
		var worst float64
		for i := 0; i < 10000; i++ {
			x, y, z, _ := Direction(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64())
			c.YnmPackedXYZ(x, y, z, got)
			legendreAt(c, x, y, z, want)
			worst = math.Max(worst, finiteDiff(got, want))
		}
		t.Logf("p=%d: worst difference %.2e of max|Y| over 10000 directions", p, worst)
		if worst > 1e-12 {
			t.Errorf("p=%d: Cartesian vs Legendre differ by %.2e of max|Y|, want <= 1e-12", p, worst)
		}

		// The poles: Y_n^0 = K_n^0 (±1)^n, and nothing else.
		for _, sign := range []float64{1, -1} {
			c.YnmPackedXYZ(0, 0, sign, got)
			for n := 0; n <= p; n++ {
				for m := 0; m <= n; m++ {
					w := 0.0
					if m == 0 {
						w = c.K(n, 0) * math.Pow(sign, float64(n))
					}
					if y := got[TriIndex(n, m)]; cmplx.Abs(y-complex(w, 0)) > 1e-13*math.Max(1, math.Abs(w)) {
						t.Errorf("p=%d pole %+g: Y_%d^%d = %v, want %g", p, sign, n, m, y, w)
					}
				}
			}
		}

		// The zero vector is the north pole, as it was through the angles.
		x, y, z, r := Direction(0, 0, 0)
		c.YnmPackedXYZ(x, y, z, got)
		c.YnmPackedXYZ(0, 0, 1, want)
		if r != 0 || x != 0 || y != 0 || z != 1 {
			t.Errorf("Direction(0, 0, 0) = (%g, %g, %g), r %g; want the north pole, r 0", x, y, z, r)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("p=%d: zero vector Y[%d] = %v, north pole %v", p, i, got[i], want[i])
			}
		}

		// A NaN coordinate propagates to every degree above 0 (Y_0^0 is the
		// constant K_0^0).
		x, y, z, _ = Direction(0.3, math.NaN(), 0.4)
		c.YnmPackedXYZ(x, y, z, got)
		if got[0] != complex(c.K(0, 0), 0) {
			t.Errorf("p=%d NaN direction: Y_0^0 = %v, want K_0^0", p, got[0])
		}
		for i := 1; i < len(got); i++ {
			if !cmplx.IsNaN(got[i]) {
				t.Errorf("p=%d NaN direction: Y[%d] = %v, want NaN", p, i, got[i])
			}
		}
	}

	// Near the axis: x and y at 1e-4 and 1e-9 of r. Y_1^1 is K_1^1 (x + iy)
	// to the rounding of one product. The angle path loses sin(theta) to
	// sqrt((1 - cos)(1 + cos)): at 1e-4 it keeps about eight digits of it,
	// and at 1e-9 cos(theta) rounds to ±1 and it returns Y_1^1 = 0.
	c := NewCoef(9)
	got := make([]complex128, TriSize(9))
	for _, eps := range []float64{1e-4, 1e-9} {
		for _, v := range [][3]float64{{eps, eps, 1}, {-eps, 0.5 * eps, -1}, {0, -eps, 1}} {
			const r = 3.0
			x, y, z, _ := Direction(r*v[0], r*v[1], r*v[2])
			c.YnmPackedXYZ(x, y, z, got)
			want := complex(c.K(1, 1)*x, c.K(1, 1)*y)
			if d := cmplx.Abs(got[TriIndex(1, 1)]-want) / cmplx.Abs(want); d > 1e-15 {
				t.Errorf("direction %v·%g: Y_1^1 = %v, want K_1^1 (x+iy) = %v (rel %.2e)", v, r, got[TriIndex(1, 1)], want, d)
			}
		}
	}
}

// FuzzYnmCartesian: any float64 triple — normalised first when it is
// finite and non-zero, so subnormal and ±1e300 coordinates give a direction
// — evaluates without a panic, to finite values unless a coordinate is NaN
// or infinite, and agrees with the Legendre evaluator wherever both are
// finite. The seed corpus in testdata/fuzz replays under plain go test.
func FuzzYnmCartesian(f *testing.F) {
	f.Add(0.3, -0.4, 0.5)
	coefs := []*Coef{NewCoef(2), NewCoef(9), NewCoef(34)}
	f.Fuzz(func(t *testing.T, x, y, z float64) {
		if s := max(math.Abs(x), math.Abs(y), math.Abs(z)); s > 0 && !math.IsInf(s, 0) && !math.IsNaN(s) {
			x, y, z = x/s, y/s, z/s
		}
		ux, uy, uz, _ := Direction(x, y, z)
		// The oracle reads a direction through its angles, and its
		// sin(theta) = sqrt((1-z)(1+z)) differs from |x + iy| of the same
		// rounded unit vector by up to 1e-16/sin(theta) — all of it at 1e-9
		// of the axis, which TestYnmCartesianMatchesLegendre pins. So the
		// recurrence is evaluated at the direction the oracle's angles name:
		// the two evaluators are compared, not two readings of one vector.
		ct, phi := math.Max(-1, math.Min(1, uz)), math.Atan2(uy, ux)
		sin, cos := math.Sincos(phi)
		st := math.Sqrt((1 - ct) * (1 + ct))
		finite := !math.IsNaN(ux + uy + uz)
		for _, c := range coefs {
			got := make([]complex128, TriSize(c.P))
			want := make([]complex128, TriSize(c.P))
			c.YnmPackedXYZ(ux, uy, uz, got)
			for i, v := range got {
				if finite && (cmplx.IsNaN(v) || cmplx.IsInf(v)) {
					t.Fatalf("p=%d (%g, %g, %g) -> (%g, %g, %g): Y[%d] = %v", c.P, x, y, z, ux, uy, uz, i, v)
				}
			}
			c.YnmPackedXYZ(st*cos, st*sin, ct, got)
			legendreYnmPacked(c, ct, phi, want)
			if d := finiteDiff(got, want); d > 1e-12 {
				t.Fatalf("p=%d (%g, %g, %g) -> (%g, %g, %g): Cartesian vs Legendre differ by %.2e of max|Y|", c.P, x, y, z, ux, uy, uz, d)
			}
		}
	})
}
