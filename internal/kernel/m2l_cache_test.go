package kernel

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// m2lCase is one list-2 geometry: boxes of side `side` separated by the
// lattice offset (dx,dy,dz).
type m2lCase struct {
	side       float64
	dx, dy, dz int
}

var m2lCases = []m2lCase{
	{0.125, 2, 0, 0},   // face-adjacent well-separated pair
	{0.125, 2, 1, -1},  // generic list-2 offset
	{0.125, 3, 3, 3},   // corner of the interaction lattice
	{0.25, -2, 0, 1},   // coarser level
	{0.0625, 0, -3, 2}, // finer level
}

func (c m2lCase) centers() (from, to geom.Point) {
	from = geom.Point{X: 0.5, Y: 0.5, Z: 0.5}
	to = from.Add(geom.Point{
		X: float64(c.dx) * c.side,
		Y: float64(c.dy) * c.side,
		Z: float64(c.dz) * c.side,
	})
	return
}

// maxCoefDiff is the max relative coefficient difference between two
// expansions, normalized by the largest magnitude in b.
func maxCoefDiff(a, b []complex128) float64 {
	var num, den float64
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > num {
			num = d
		}
		if m := cmplx.Abs(b[i]); m > den {
			den = m
		}
	}
	if den == 0 {
		return num
	}
	return num / den
}

// projectedM2L applies M->L through the projection fallback, reached the way
// production reaches it: an offset off the list-2 lattice. The boxes keep
// their centres; the side is presented one part in 1e8 larger, so the
// centre difference is no integer multiple of it and the projection radius
// moves in the eighth digit — which an expansion of actual sources (boxML)
// feels only through its truncation error, some 1e-4 of 1e-8. It fails the
// test if a table would serve the call after all.
func projectedM2L(t *testing.T, k Kernel, from, to geom.Point, side float64, in, out []complex128) {
	t.Helper()
	off := side * (1 + 1e-8)
	if k.(*base).xlTableFor(m2lKind, to.Sub(from), off) != nil {
		t.Fatalf("offset %v at side %g is still on the lattice", to.Sub(from), off)
	}
	k.M2L(from, to, off, in, out)
}

// referenceM2L applies M->L through the full-layout complex reference engine
// (reference_test.go), which shares none of the production operators.
func referenceM2L(k Kernel, from, to geom.Point, side float64, in []complex128) []complex128 {
	b := k.(*base)
	return packML(b.p, newRefEngine(k).translate(from, to, b.aM2L*side, unpackML(b.p, in), b.radOut, b.radReg))
}

// fieldDiff compares two local expansions about c where they are used: at
// thirty points of the box of side `side` around c, relative to the largest
// value there.
func fieldDiff(rng *rand.Rand, k Kernel, c geom.Point, side float64, a, b []complex128) float64 {
	tpts := randBox(rng, c, side, 30)
	pa, pb := make([]float64, len(tpts)), make([]float64, len(tpts))
	k.L2T(c, a, tpts, pa)
	k.L2T(c, b, tpts, pb)
	var num, den float64
	for i := range pa {
		num = math.Max(num, math.Abs(pa[i]-pb[i]))
		den = math.Max(den, math.Abs(pb[i]))
	}
	return num / den
}

// boxML is the multipole expansion of forty random charges in the box of the
// given centre and side: an input with the decaying spectrum every
// expansion in a plan has.
func boxML(rng *rand.Rand, k Kernel, c geom.Point, side float64) []complex128 {
	m := make([]complex128, k.MLSize())
	k.S2M(c, randBox(rng, c, side, 40), randCharges(rng, 40), m)
	return m
}

// randomML is a random packed expansion of a real potential: the imaginary
// part of every m = 0 coefficient is zero, as it is in every expansion the
// operators produce.
func randomML(rng *rand.Rand, k Kernel) []complex128 {
	b := k.(*base)
	m := make([]complex128, k.MLSize())
	for i := range m {
		m[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return packML(b.p, unpackML(b.p, m))
}

// TestM2LCachedMatchesProjection checks that the cached dense operator, the
// spectral projection it tabulates and the full-layout reference engine
// agree to near machine precision on every lattice offset class, for both
// kernels: the three are the same linear operator. The reference engine
// projects at the same radius to the bit and is held coefficient by
// coefficient; the production fallback's radius moved in the eighth digit,
// which reshuffles the aliased high degrees, so it is held in the field the
// expansion produces in its box.
func TestM2LCachedMatchesProjection(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, tc := range kernels(t) {
		for _, c := range m2lCases {
			from, to := c.centers()
			m := boxML(rng, tc.k, from, c.side)
			cached := make([]complex128, tc.k.MLSize())
			projected := make([]complex128, tc.k.MLSize())
			tc.k.M2L(from, to, c.side, m, cached)
			projectedM2L(t, tc.k, from, to, c.side, m, projected)
			if e := fieldDiff(rng, tc.k, to, c.side, cached, projected); e > 1e-10 {
				t.Errorf("%s offset (%d,%d,%d) side %g: cached vs projected field rel diff %.2e",
					tc.name, c.dx, c.dy, c.dz, c.side, e)
			}
			// Against the reference engine the radius is the same to the
			// bit, so any input will do: every degree at O(1).
			m = randomML(rng, tc.k)
			cached = make([]complex128, tc.k.MLSize())
			tc.k.M2L(from, to, c.side, m, cached)
			if e := maxCoefDiff(cached, referenceM2L(tc.k, from, to, c.side, m)); e > 1e-12 {
				t.Errorf("%s offset (%d,%d,%d) side %g: cached vs reference engine rel diff %.2e",
					tc.name, c.dx, c.dy, c.dz, c.side, e)
			}
		}
	}
}

// TestM2LCacheFallsBackOffLattice checks that geometry off the interaction
// lattice bypasses the tables — none is looked up, none is built — and
// lands on the reference engine's result.
func TestM2LCacheFallsBackOffLattice(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, tc := range kernels(t) {
		b := tc.k.(*base)
		m := randomML(rng, tc.k)
		from := geom.Point{X: 0.5, Y: 0.5, Z: 0.5}
		// Not an integer multiple of the side: must not be cached.
		to := from.Add(geom.Point{X: 0.3071, Y: 0.011, Z: -0.29})
		if b.xlTableFor(m2lKind, to.Sub(from), 0.125) != nil {
			t.Fatalf("%s: off-lattice offset resolved to a table", tc.name)
		}
		tables := func() (n int) {
			b.tabs.Range(func(any, any) bool { n++; return true })
			return n
		}
		before := tables()
		got := make([]complex128, tc.k.MLSize())
		tc.k.M2L(from, to, 0.125, m, got)
		if after := tables(); after != before {
			t.Errorf("%s: off-lattice M2L built %d tables", tc.name, after-before)
		}
		if e := maxCoefDiff(got, referenceM2L(tc.k, from, to, 0.125, m)); e > 1e-12 {
			t.Errorf("%s: off-lattice M2L vs reference engine rel diff %.2e", tc.name, e)
		}
	}
}

// TestM2LCachedEndToEndAccuracy gates the cached path against the direct
// sum: S2M + cached M2L + L2T on a well-separated pair must deliver the
// 3-digit requirement, exactly like the projection path it replaces.
func TestM2LCachedEndToEndAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tc := range kernels(t) {
		const side = 0.125
		from := geom.Point{X: 0.5, Y: 0.5, Z: 0.5}
		to := from.Add(geom.Point{X: 2 * side, Y: side, Z: -side})
		spts := randBox(rng, from, side, 40)
		q := randCharges(rng, 40)
		tpts := randBox(rng, to, side, 30)
		m := make([]complex128, tc.k.MLSize())
		l := make([]complex128, tc.k.MLSize())
		tc.k.S2M(from, spts, q, m)
		tc.k.M2L(from, to, side, m, l)
		pot := make([]float64, len(tpts))
		tc.k.L2T(to, l, tpts, pot)
		want := direct(tc.k, spts, q, tpts)
		if e := relErr(pot, want); e > tc.tol {
			t.Errorf("%s: cached S2M+M2L+L2T rel err %.2e > %.0e", tc.name, e, tc.tol)
		}
	}
}
