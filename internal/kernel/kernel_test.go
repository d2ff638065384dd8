package kernel

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// testCase bundles one kernel configuration for the operator accuracy tests.
type testCase struct {
	name string
	k    Kernel
	tol  float64 // relative error target: 3 digits, with margin
}

func kernels(t testing.TB) []testCase {
	p := OrderForDigits(3)
	lap := NewLaplace(p)
	yuk := NewYukawa(p, 4.0)
	// Prepare for a unit root domain refined to level 5.
	lap.Prepare(1.0, 5)
	yuk.Prepare(1.0, 5)
	return []testCase{
		{"laplace", lap, 1e-3},
		{"yukawa", yuk, 1e-3},
	}
}

// randBox returns n points uniform in the cube of the given center and side.
func randBox(rng *rand.Rand, c geom.Point, side float64, n int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{
			X: c.X + side*(rng.Float64()-0.5),
			Y: c.Y + side*(rng.Float64()-0.5),
			Z: c.Z + side*(rng.Float64()-0.5),
		}
	}
	return pts
}

func randCharges(rng *rand.Rand, n int) []float64 {
	q := make([]float64, n)
	for i := range q {
		q[i] = 2*rng.Float64() - 1
	}
	return q
}

// direct computes the reference potentials, on the float64 pair loop.
func direct(k Kernel, spts []geom.Point, q []float64, tpts []geom.Point) []float64 {
	pot := make([]float64, len(tpts))
	S2TFloat64(k, spts, q, tpts, pot)
	return pot
}

// relErr returns max_i |a_i - b_i| / max_i |b_i|.
func relErr(a, b []float64) float64 {
	var num, den float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > num {
			num = d
		}
		if m := math.Abs(b[i]); m > den {
			den = m
		}
	}
	if den == 0 {
		return num
	}
	return num / den
}

func TestS2MM2TAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range kernels(t) {
		c := geom.Point{X: 0.5, Y: 0.5, Z: 0.5}
		spts := randBox(rng, c, 0.25, 40) // side 0.25 box
		q := randCharges(rng, 40)
		// Targets in a well-separated region (two box sides away).
		tpts := randBox(rng, c.Add(geom.Point{X: 0.5, Y: 0.25, Z: -0.25}), 0.25, 30)
		m := make([]complex128, tc.k.MLSize())
		tc.k.S2M(c, spts, q, m)
		pot := make([]float64, len(tpts))
		tc.k.M2T(c, m, tpts, pot)
		want := direct(tc.k, spts, q, tpts)
		if e := relErr(pot, want); e > tc.tol {
			t.Errorf("%s: S2M+M2T rel err %.2e > %.0e", tc.name, e, tc.tol)
		}
	}
}

func TestS2LL2TAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, tc := range kernels(t) {
		c := geom.Point{X: 0.5, Y: 0.5, Z: 0.5}
		// Sources far away, targets near c.
		spts := randBox(rng, c.Add(geom.Point{X: -0.5, Y: 0.5, Z: 0.25}), 0.25, 40)
		q := randCharges(rng, 40)
		tpts := randBox(rng, c, 0.25, 30)
		l := make([]complex128, tc.k.MLSize())
		tc.k.S2L(c, spts, q, l)
		pot := make([]float64, len(tpts))
		tc.k.L2T(c, l, tpts, pot)
		want := direct(tc.k, spts, q, tpts)
		if e := relErr(pot, want); e > tc.tol {
			t.Errorf("%s: S2L+L2T rel err %.2e > %.0e", tc.name, e, tc.tol)
		}
	}
}

func TestM2MAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, tc := range kernels(t) {
		childSide := 0.125
		parent := geom.Point{X: 0.5, Y: 0.5, Z: 0.5}
		// One child in each octant contributes sources.
		mParent := make([]complex128, tc.k.MLSize())
		var allS []geom.Point
		var allQ []float64
		for o := 0; o < 8; o++ {
			off := geom.Point{
				X: childSide / 2 * float64(2*(o&1)-1),
				Y: childSide / 2 * float64(2*(o>>1&1)-1),
				Z: childSide / 2 * float64(2*(o>>2&1)-1),
			}
			cc := parent.Add(off)
			spts := randBox(rng, cc, childSide, 15)
			q := randCharges(rng, 15)
			mc := make([]complex128, tc.k.MLSize())
			tc.k.S2M(cc, spts, q, mc)
			tc.k.M2M(cc, parent, childSide, mc, mParent)
			allS = append(allS, spts...)
			allQ = append(allQ, q...)
		}
		// Evaluate at list-2 distance of the parent box (side 0.25).
		tpts := randBox(rng, parent.Add(geom.Point{X: 0.5, Y: -0.25, Z: 0.25}), 0.2, 25)
		pot := make([]float64, len(tpts))
		tc.k.M2T(parent, mParent, tpts, pot)
		want := direct(tc.k, allS, allQ, tpts)
		if e := relErr(pot, want); e > tc.tol {
			t.Errorf("%s: M2M rel err %.2e > %.0e", tc.name, e, tc.tol)
		}
	}
}

func TestM2LAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, tc := range kernels(t) {
		side := 0.25
		sc := geom.Point{X: 0.25, Y: 0.25, Z: 0.25}
		// Worst-case list-2 geometry: centers exactly two box sides apart.
		for _, off := range []geom.Point{
			{X: 2 * side}, {X: 2 * side, Y: 2 * side, Z: 2 * side},
			{X: -2 * side, Y: side}, {Z: 3 * side},
		} {
			tcn := sc.Add(off)
			spts := randBox(rng, sc, side, 30)
			q := randCharges(rng, 30)
			tpts := randBox(rng, tcn, side, 20)
			m := make([]complex128, tc.k.MLSize())
			tc.k.S2M(sc, spts, q, m)
			l := make([]complex128, tc.k.MLSize())
			tc.k.M2L(sc, tcn, side, m, l)
			pot := make([]float64, len(tpts))
			tc.k.L2T(tcn, l, tpts, pot)
			want := direct(tc.k, spts, q, tpts)
			if e := relErr(pot, want); e > tc.tol {
				t.Errorf("%s: M2L offset %v rel err %.2e > %.0e", tc.name, off, e, tc.tol)
			}
		}
	}
}

func TestL2LAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, tc := range kernels(t) {
		side := 0.25
		parent := geom.Point{X: 0.5, Y: 0.5, Z: 0.5}
		spts := randBox(rng, parent.Add(geom.Point{X: 2.5 * side, Y: -2 * side}), side, 30)
		q := randCharges(rng, 30)
		lp := make([]complex128, tc.k.MLSize())
		tc.k.S2L(parent, spts, q, lp)
		// Translate to each child and evaluate inside the child.
		for o := 0; o < 8; o++ {
			childSide := side / 2
			cc := parent.Add(geom.Point{
				X: childSide / 2 * float64(2*(o&1)-1),
				Y: childSide / 2 * float64(2*(o>>1&1)-1),
				Z: childSide / 2 * float64(2*(o>>2&1)-1),
			})
			lc := make([]complex128, tc.k.MLSize())
			tc.k.L2L(parent, cc, childSide, lp, lc)
			tpts := randBox(rng, cc, childSide, 10)
			pot := make([]float64, len(tpts))
			tc.k.L2T(cc, lc, tpts, pot)
			want := direct(tc.k, spts, q, tpts)
			if e := relErr(pot, want); e > tc.tol {
				t.Errorf("%s: L2L octant %d rel err %.2e > %.0e", tc.name, o, e, tc.tol)
			}
		}
	}
}

func TestYukawaDegeneratesToLaplace(t *testing.T) {
	// With a tiny screening parameter the Yukawa potential over a unit-scale
	// configuration matches Laplace to first order.
	p := 8
	lap := NewLaplace(p)
	yuk := NewYukawa(p, 1e-6)
	rng := rand.New(rand.NewSource(6))
	spts := randBox(rng, geom.Point{X: 0.3, Y: 0.3, Z: 0.3}, 0.2, 20)
	q := randCharges(rng, 20)
	tpts := randBox(rng, geom.Point{X: 0.8, Y: 0.8, Z: 0.8}, 0.2, 20)
	a := direct(lap, spts, q, tpts)
	b := direct(yuk, spts, q, tpts)
	if e := relErr(a, b); e > 1e-5 {
		t.Errorf("Yukawa(1e-6) vs Laplace rel err %.2e", e)
	}
	// And the expansions agree too.
	ml := make([]complex128, lap.MLSize())
	my := make([]complex128, yuk.MLSize())
	c := geom.Point{X: 0.3, Y: 0.3, Z: 0.3}
	lap.S2M(c, spts, q, ml)
	yuk.S2M(c, spts, q, my)
	for i := range ml {
		if d := cAbs(ml[i] - my[i]); d > 1e-4*(1+cAbs(ml[i])) {
			t.Errorf("moment %d differs: %v vs %v", i, ml[i], my[i])
		}
	}
}

func cAbs(z complex128) float64 { return math.Hypot(real(z), imag(z)) }

func TestExpansionLinearity(t *testing.T) {
	// Superposition: S2M of the union equals the sum of S2M of the parts,
	// and doubling charges doubles the expansion.
	for _, tc := range kernels(t) {
		rng := rand.New(rand.NewSource(7))
		c := geom.Point{X: 0.5, Y: 0.5, Z: 0.5}
		a := randBox(rng, c, 0.25, 10)
		bq := randBox(rng, c, 0.25, 10)
		qa := randCharges(rng, 10)
		qb := randCharges(rng, 10)
		mU := make([]complex128, tc.k.MLSize())
		tc.k.S2M(c, append(append([]geom.Point{}, a...), bq...), append(append([]float64{}, qa...), qb...), mU)
		mA := make([]complex128, tc.k.MLSize())
		tc.k.S2M(c, a, qa, mA)
		tc.k.S2M(c, bq, qb, mA) // accumulate
		for i := range mU {
			if cAbs(mU[i]-mA[i]) > 1e-12*(1+cAbs(mU[i])) {
				t.Fatalf("%s: superposition violated at %d: %v vs %v", tc.name, i, mU[i], mA[i])
			}
		}
		q2 := make([]float64, len(qa))
		for i := range q2 {
			q2[i] = 2 * qa[i]
		}
		m2 := make([]complex128, tc.k.MLSize())
		tc.k.S2M(c, a, q2, m2)
		m1 := make([]complex128, tc.k.MLSize())
		tc.k.S2M(c, a, qa, m1)
		for i := range m2 {
			if cAbs(m2[i]-2*m1[i]) > 1e-12*(1+cAbs(m2[i])) {
				t.Fatalf("%s: homogeneity violated at %d", tc.name, i)
			}
		}
	}
}

func TestS2TSkipsCoincidentPoints(t *testing.T) {
	k := NewLaplace(4)
	pts := []geom.Point{{X: 0.1}, {X: 0.2}}
	q := []float64{1, 1}
	pot := make([]float64, 2)
	k.S2T(pts, q, pts, pot)
	want := 1 / 0.1
	for i := range pot {
		if math.Abs(pot[i]-want) > 1e-12 {
			t.Errorf("pot[%d] = %v, want %v", i, pot[i], want)
		}
	}
}

func TestOrderForDigits(t *testing.T) {
	if p := OrderForDigits(3); p < 8 || p > 10 {
		t.Errorf("OrderForDigits(3) = %d, expected around 8", p)
	}
	if p3, p6 := OrderForDigits(3), OrderForDigits(6); p6 <= p3 {
		t.Errorf("order must grow with digits: %d vs %d", p3, p6)
	}
}
