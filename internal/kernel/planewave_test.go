package kernel

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// pwGeom holds a source box / target box pair at list-2 separation for the
// plane-wave tests: boxes of the given side with integer offset (dx,dy,dz).
func pwPair(rng *rand.Rand, side float64, dx, dy, dz int32, ns, nt int) (sc, tc geom.Point, spts []geom.Point, q []float64, tpts []geom.Point) {
	sc = geom.Point{X: 0.5, Y: 0.5, Z: 0.5}
	tc = sc.Add(geom.Point{X: float64(dx) * side, Y: float64(dy) * side, Z: float64(dz) * side})
	spts = randBox(rng, sc, side, ns)
	q = randCharges(rng, ns)
	tpts = randBox(rng, tc, side, nt)
	return
}

// runPW pushes sources through S2M -> M2I -> I2I -> I2L -> L2T for the
// direction classifying the offset and returns the relative error against
// the direct sum.
func runPW(t *testing.T, k Kernel, level int, side float64, dx, dy, dz int32, seed int64) float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	sc, tcn, spts, q, tpts := pwPair(rng, side, dx, dy, dz, 25, 20)
	dir, ok := geom.DirectionOf(dx, dy, dz)
	if !ok {
		t.Fatalf("offset (%d,%d,%d) has no direction", dx, dy, dz)
	}
	m := make([]complex128, k.MLSize())
	k.S2M(sc, spts, q, m)
	x := make([]complex128, k.ISize(level))
	k.M2I(dir, level, m, x)
	xr := make([]complex128, k.ISize(level))
	k.I2I(dir, level, tcn.Sub(sc), x, xr)
	l := make([]complex128, k.MLSize())
	k.I2L(dir, level, xr, l)
	pot := make([]float64, len(tpts))
	k.L2T(tcn, l, tpts, pot)
	want := direct(k, spts, q, tpts)
	return relErr(pot, want)
}

func TestPlaneWaveUpDirection(t *testing.T) {
	for _, tc := range kernels(t) {
		// Level 2 boxes of the unit domain have side 0.25.
		if e := runPW(t, tc.k, 2, 0.25, 0, 0, 2, 11); e > tc.tol {
			t.Errorf("%s: up (0,0,2) rel err %.2e > %.0e", tc.name, e, tc.tol)
		}
	}
}

func TestPlaneWaveAllDirections(t *testing.T) {
	offsets := []struct{ dx, dy, dz int32 }{
		{0, 0, 2}, {0, 0, -2}, {0, 2, 0}, {0, -2, 0}, {2, 0, 0}, {-2, 0, 0},
	}
	for _, tc := range kernels(t) {
		for _, o := range offsets {
			if e := runPW(t, tc.k, 2, 0.25, o.dx, o.dy, o.dz, 13); e > tc.tol {
				t.Errorf("%s: offset (%d,%d,%d) rel err %.2e > %.0e",
					tc.name, o.dx, o.dy, o.dz, e, tc.tol)
			}
		}
	}
}

func TestPlaneWaveWorstOffsets(t *testing.T) {
	// The hardest list-2 geometries: minimum separation along the cone axis
	// with maximum lateral offset, and the far corner.
	offsets := []struct{ dx, dy, dz int32 }{
		{2, 2, 2}, {3, 3, 3}, {3, 3, 2}, {-3, 2, 3}, {1, 1, 2}, {-1, 1, -2},
		{0, 3, 2}, {2, -1, 0},
	}
	for _, tc := range kernels(t) {
		for _, o := range offsets {
			if _, ok := geom.DirectionOf(o.dx, o.dy, o.dz); !ok {
				continue
			}
			if e := runPW(t, tc.k, 2, 0.25, o.dx, o.dy, o.dz, 17); e > tc.tol {
				t.Errorf("%s: offset (%d,%d,%d) rel err %.2e > %.0e",
					tc.name, o.dx, o.dy, o.dz, e, tc.tol)
			}
		}
	}
}

func TestPlaneWaveMergeAtParent(t *testing.T) {
	// Merge-and-shift validity: the waves of all children of a source
	// parent, shifted to the parent center and summed, must equal the sum of
	// the individual waves for any target in the cone of every child.
	for _, tc := range kernels(t) {
		rng := rand.New(rand.NewSource(19))
		level := 3
		side := 1.0 / 8 // level-3 box side of the unit domain
		parent := geom.Point{X: 0.5, Y: 0.5, Z: 0.5}
		xm := make([]complex128, tc.k.ISize(level))
		var allS []geom.Point
		var allQ []float64
		for o := 0; o < 8; o++ {
			cc := parent.Add(geom.Point{
				X: side / 2 * float64(2*(o&1)-1),
				Y: side / 2 * float64(2*(o>>1&1)-1),
				Z: side / 2 * float64(2*(o>>2&1)-1),
			})
			spts := randBox(rng, cc, side, 12)
			q := randCharges(rng, 12)
			m := make([]complex128, tc.k.MLSize())
			tc.k.S2M(cc, spts, q, m)
			x := make([]complex128, tc.k.ISize(level))
			tc.k.M2I(geom.Up, level, m, x)
			// Merge into the parent-centered wave.
			tc.k.I2I(geom.Up, level, parent.Sub(cc), x, xm)
			allS = append(allS, spts...)
			allQ = append(allQ, q...)
		}
		// A target box three child-boxes up from the upper children is in
		// the Up cone of every child (dz = 3 or 4, lateral <= 1).
		tcn := parent.Add(geom.Point{X: side / 2, Y: -side / 2, Z: side/2 + 3*side})
		tpts := randBox(rng, tcn, side, 15)
		xr := make([]complex128, tc.k.ISize(level))
		tc.k.I2I(geom.Up, level, tcn.Sub(parent), xm, xr)
		l := make([]complex128, tc.k.MLSize())
		tc.k.I2L(geom.Up, level, xr, l)
		pot := make([]float64, len(tpts))
		tc.k.L2T(tcn, l, tpts, pot)
		want := direct(tc.k, allS, allQ, tpts)
		if e := relErr(pot, want); e > tc.tol {
			t.Errorf("%s: merged wave rel err %.2e > %.0e", tc.name, e, tc.tol)
		}
	}
}

func TestPlaneWaveShiftComposition(t *testing.T) {
	// I2I(a+b) must equal I2I(a) followed by I2I(b): the translations are
	// exact group actions on the wave coefficients.
	for _, tc := range kernels(t) {
		level := 2
		rng := rand.New(rand.NewSource(23))
		x := make([]complex128, tc.k.ISize(level))
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		a := geom.Point{X: 0.1, Y: -0.05, Z: 0.2}
		b := geom.Point{X: -0.02, Y: 0.07, Z: 0.15}
		oneShot := make([]complex128, len(x))
		tc.k.I2I(geom.Up, level, a.Add(b), x, oneShot)
		step1 := make([]complex128, len(x))
		tc.k.I2I(geom.Up, level, a, x, step1)
		step2 := make([]complex128, len(x))
		tc.k.I2I(geom.Up, level, b, step1, step2)
		for i := range x {
			if cAbs(oneShot[i]-step2[i]) > 1e-10*(1+cAbs(oneShot[i])) {
				t.Fatalf("%s: shift composition violated at %d: %v vs %v",
					tc.name, i, oneShot[i], step2[i])
			}
		}
	}
}

func TestYukawaISizeVariesWithDepth(t *testing.T) {
	// Scale variance: the Yukawa intermediate expansion length depends on
	// the level (paper, Section V-A), while Laplace's does not.
	p := OrderForDigits(3)
	yuk := NewYukawa(p, 40)
	yuk.Prepare(1.0, 6)
	lap := NewLaplace(p)
	lap.Prepare(1.0, 6)
	if yuk.ISize(0) == yuk.ISize(6) {
		t.Errorf("yukawa ISize constant across levels: %d", yuk.ISize(0))
	}
	if lap.ISize(0) != lap.ISize(6) {
		t.Errorf("laplace ISize varies: %d vs %d", lap.ISize(0), lap.ISize(6))
	}
}

// The Yukawa rule's size bound: yukawaRuleTerms bounds the rule each level
// really gets from above, by at most one term per node, and a root cube
// past maxRuleTerms — λ·side 1e7, 1e300, overflowed — is ErrRuleTooLarge
// from Prepare, which leaves the kernel as it was.
func TestYukawaRuleBound(t *testing.T) {
	for _, x := range []float64{0, 0.5, 4, 40, 1e3, 1e4} {
		n := yukawaNodes(x)
		r := makeRule(n, 1)
		if est := yukawaRuleTerms(x); est < float64(r.total) || est > float64(r.total+len(n.u)) {
			t.Errorf("λ·side %g: rule of %d terms on %d nodes, bounded at %.0f", x, r.total, len(n.u), est)
		}
	}
	k := NewYukawa(2, 1e4)
	if err := k.Prepare(1, 2); err != nil {
		t.Fatalf("λ = 1e4 on a unit cube: %v", err)
	}
	before := k.ISize(0)
	for _, side := range []float64{1e3, 1e296, math.MaxFloat64} {
		if err := k.Prepare(side, 2); !errors.Is(err, ErrRuleTooLarge) {
			t.Errorf("λ·side %g: Prepare returned %v, want ErrRuleTooLarge", 1e4*side, err)
		}
	}
	if got := k.(*base).RootSide(); got != 1 || k.ISize(0) != before {
		t.Errorf("a refused Prepare rebound the kernel: root side %g, ISize(0) %d (was 1, %d)", got, k.ISize(0), before)
	}
	if err := NewLaplace(2).Prepare(1e300, 2); err != nil {
		t.Errorf("Laplace is scale-free, yet: %v", err)
	}
}

// The Laplace table bound: at twelve digits (p = 34) one level's twelve
// plane-wave tables are 747 MB, so a kernel prepared two plane-wave levels
// deep is admitted, a deeper one is ErrRuleTooLarge from Prepare, which
// leaves the kernel as it was, and at three digits forty levels are far
// inside the bound.
func TestLaplaceWaveTableBound(t *testing.T) {
	k := NewLaplace(OrderForDigits(12))
	if err := k.Prepare(1, 3); err != nil {
		t.Fatalf("twelve digits, levels 0..3: %v", err)
	}
	for _, deep := range []int{4, 8, 30} {
		if err := k.Prepare(1, deep); !errors.Is(err, ErrRuleTooLarge) {
			t.Errorf("twelve digits, levels 0..%d: Prepare returned %v, want ErrRuleTooLarge", deep, err)
		}
	}
	if got := len(k.(*base).pw.Load().levels); got != 4 {
		t.Errorf("a refused Prepare left %d levels prepared, want the 4 of the admitted one", got)
	}
	if err := NewLaplace(OrderForDigits(3)).Prepare(1, 40); err != nil {
		t.Errorf("three digits, levels 0..40: %v", err)
	}
}

func TestPlaneWaveLevelConsistency(t *testing.T) {
	// The same physical configuration must give the same answer whether the
	// boxes are treated as level-2 or level-3 boxes (with sides to match).
	for _, tc := range kernels(t) {
		e2 := runPW(t, tc.k, 2, 0.25, 2, 1, 0, 29)
		e3 := runPW(t, tc.k, 3, 0.125, 2, 1, 0, 29)
		if e2 > tc.tol || e3 > tc.tol {
			t.Errorf("%s: level consistency errs %.2e / %.2e", tc.name, e2, e3)
		}
	}
}

func TestDirectionOfCoversList2(t *testing.T) {
	// Every well-separated same-level offset within the interaction range
	// must classify into exactly one direction cone.
	for dx := int32(-3); dx <= 3; dx++ {
		for dy := int32(-3); dy <= 3; dy++ {
			for dz := int32(-3); dz <= 3; dz++ {
				ws := dx > 1 || dx < -1 || dy > 1 || dy < -1 || dz > 1 || dz < -1
				_, ok := geom.DirectionOf(dx, dy, dz)
				if ws && !ok {
					t.Errorf("list-2 offset (%d,%d,%d) has no direction", dx, dy, dz)
				}
				if !ws && ok {
					t.Errorf("near offset (%d,%d,%d) classified", dx, dy, dz)
				}
			}
		}
	}
}

func TestRotationsAreOrthogonal(t *testing.T) {
	dirs := []geom.Direction{geom.Up, geom.Down, geom.North, geom.South, geom.East, geom.West}
	v := geom.Point{X: 0.3, Y: -0.7, Z: 1.1}
	for _, d := range dirs {
		r := d.RotateToUp(v)
		if math.Abs(r.Norm()-v.Norm()) > 1e-14 {
			t.Errorf("%v: rotation changes length", d)
		}
		back := d.RotateFromUp(r)
		if back.Sub(v).Norm() > 1e-14 {
			t.Errorf("%v: RotateFromUp does not invert RotateToUp", d)
		}
		// The direction axis must map to +z.
		axis := geom.Point{}
		switch d.Axis() {
		case 0:
			axis.X = float64(d.Sign())
		case 1:
			axis.Y = float64(d.Sign())
		case 2:
			axis.Z = float64(d.Sign())
		}
		up := d.RotateToUp(axis)
		if up.Sub(geom.Point{Z: 1}).Norm() > 1e-14 {
			t.Errorf("%v: axis %v maps to %v, want +z", d, axis, up)
		}
	}
}
