package kernel

import (
	"fmt"
	"math/cmplx"
	"math/rand"
	"strings"
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

// referenceM2L applies M->L through the full-layout complex reference engine
// (reference_test.go), which shares none of the production operators.
func referenceM2L(k Kernel, from, to geom.Point, side float64, in []complex128) []complex128 {
	b := k.(*base)
	return packML(b.p, newRefEngine(k).translate(from, to, b.aM2L*side, unpackML(b.p, in), b.radOut, b.radReg))
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

// TestM2LCachedMatchesProjection checks that the cached dense operator and
// the full-layout reference engine's spectral projection agree to near
// machine precision on every lattice offset class, for both kernels: the
// two are the same linear operator, projected at the same radius to the
// bit, so any input will do — every degree at O(1) — and they are held
// coefficient by coefficient.
func TestM2LCachedMatchesProjection(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, tc := range kernels(t) {
		for _, c := range m2lCases {
			from, to := c.centers()
			m := randomML(rng, tc.k)
			cached := make([]complex128, tc.k.MLSize())
			tc.k.M2L(from, to, c.side, m, cached)
			if e := maxCoefDiff(cached, referenceM2L(tc.k, from, to, c.side, m)); e > 1e-12 {
				t.Errorf("%s offset (%d,%d,%d) side %g: cached vs reference engine rel diff %.2e",
					tc.name, c.dx, c.dy, c.dz, c.side, e)
			}
		}
	}
}

// offLatticeSide is the box side of the off-lattice cases: the I->I ones
// run at level 3 of the unit root cube.
const offLatticeSide = 0.125

// offLatticeCase is one translation handed a centre difference off its
// lattice (or, for I->I, on it but beyond its reach).
type offLatticeCase struct {
	op  string
	off geom.Point
}

// checkOffLatticePanics runs each case on every kernel and checks that it
// panics, naming the operator, the offset and the box side.
func checkOffLatticePanics(t *testing.T, tc testCase, cases []offLatticeCase) {
	t.Helper()
	const side = offLatticeSide
	from := geom.Point{X: 0.5, Y: 0.5, Z: 0.5}
	in := make([]complex128, max(tc.k.MLSize(), tc.k.ISize(3)))
	out := make([]complex128, len(in))
	for _, c := range cases {
		msg := func() (msg string) {
			defer func() { msg = fmt.Sprint(recover()) }()
			switch c.op {
			case "M2M":
				tc.k.M2M(from, from.Add(c.off), side, in, out)
			case "L2L":
				tc.k.L2L(from, from.Add(c.off), side, in, out)
			case "M2L":
				tc.k.M2L(from, from.Add(c.off), side, in, out)
			case "I2I":
				tc.k.I2I(geom.North, 3, c.off, in, out)
			}
			return "<nil>"
		}()
		off := from.Add(c.off).Sub(from)
		if c.op == "I2I" {
			off = c.off
		}
		for _, want := range []string{c.op, fmt.Sprint(off), fmt.Sprintf("side %g", side)} {
			if !strings.Contains(msg, want) {
				t.Errorf("%s %s %v: panic %q does not name %q", tc.name, c.op, c.off, msg, want)
			}
		}
	}
}

// TestTranslationsPanicOffLattice checks that an M->M or L->L handed a
// centre difference off its lattice panics, naming the operator, the offset
// and the box side: plans are root-relative, so such a call is a
// programming error, never a slow path.
func TestTranslationsPanicOffLattice(t *testing.T) {
	const side = offLatticeSide
	cases := []offLatticeCase{
		{"M2M", geom.Point{X: 0.3 * side}},
		{"M2M", geom.Point{X: side, Y: side / 2, Z: side / 2}},
		{"L2L", geom.Point{X: side / 2, Y: -side / 2, Z: 0.51 * side}},
	}
	for _, tc := range kernels(t) {
		checkOffLatticePanics(t, tc, cases)
	}
}

// TestM2LCacheFallsBackOffLattice checks that an M->L off the interaction
// lattice resolves to no table, builds none, and panics rather than falling
// back to a slow path.
func TestM2LCacheFallsBackOffLattice(t *testing.T) {
	const side = offLatticeSide
	cases := []offLatticeCase{
		{"M2L", geom.Point{X: 0.3071, Y: 0.011, Z: -0.29}},
		{"M2L", geom.Point{X: side, Y: -side}},    // near, not list 2
		{"M2L", geom.Point{X: 4 * side, Z: side}}, // beyond list 2
		{"M2L", geom.Point{X: 2 * side * (1 + 1e-5)}},
	}
	for _, tc := range kernels(t) {
		b := tc.k.(*base)
		for _, c := range cases {
			if b.xlTableFor(m2lKind, c.off, side) != nil {
				t.Fatalf("%s %v: off-lattice offset resolved to a table", tc.name, c.off)
			}
		}
		tables := func() (n int) {
			b.tabs.Range(func(any, any) bool { n++; return true })
			return n
		}
		before := tables()
		checkOffLatticePanics(t, tc, cases)
		if after := tables(); after != before {
			t.Errorf("%s: off-lattice M2L built %d tables", tc.name, after-before)
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
