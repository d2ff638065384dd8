package kernel

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/sphharm"
)

// The realness oracle: the packed m >= 0 expansions and half plane waves
// against the full complex engine of reference_test.go. What the layout
// exploits — the m < 0 half and the (alpha + pi) half are conjugates — is
// asserted, not assumed, and every operator on a packed input must equal
// the reference operator on the unpacked input.

// randPacked draws a packed expansion with a nonzero imaginary part in its
// m = 0 slots too: the operators must ignore it.
func randPacked(rng *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

// requireRealM0 fails when an m = 0 coefficient of a packed output carries
// an imaginary part: it is zero on output, exactly.
func requireRealM0(t *testing.T, what string, p int, x []complex128) {
	t.Helper()
	for n := 0; n <= p; n++ {
		if im := imag(x[sphharm.TriIndex(n, 0)]); im != 0 {
			t.Errorf("%s: Im of coefficient (%d, 0) is %g, want exactly 0", what, n, im)
		}
	}
}

// (a) The property itself, and the packed S->M / S->L against the m >= 0
// half of the reference.
func TestRealnessOfExpansions(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for _, tc := range kernels(t) {
		b := tc.k.(*base)
		ref := newRefEngine(tc.k)
		c := geom.Point{X: 0.5, Y: 0.5, Z: 0.5}
		near := randBox(rng, c, 0.25, 40)
		far := randBox(rng, c.Add(geom.Point{X: -0.5, Y: 0.5, Z: 0.25}), 0.25, 40)
		q := randCharges(rng, 40)
		for _, op := range []struct {
			name   string
			spts   []geom.Point
			rf     radialFunc
			packed func(geom.Point, []geom.Point, []float64, []complex128)
		}{
			{"S2M", near, b.radReg, tc.k.S2M},
			{"S2L", far, b.radOut, tc.k.S2L},
		} {
			full := ref.project(c, op.spts, q, op.rf)
			var scale float64
			for _, v := range full {
				scale = math.Max(scale, cmplx.Abs(v))
			}
			for n := 0; n <= b.p; n++ {
				for m := 0; m <= n; m++ {
					pos, neg := full[sphharm.SqIndex(n, m)], full[sphharm.SqIndex(n, -m)]
					if d := cmplx.Abs(neg - cmplx.Conj(pos)); d > 1e-13*scale {
						t.Fatalf("%s %s: reference (%d,%d) and (%d,%d) are not conjugates: %v vs %v", tc.name, op.name, n, -m, n, m, neg, pos)
					}
				}
			}
			got := make([]complex128, tc.k.MLSize())
			op.packed(c, op.spts, q, got)
			if e := maxCoefDiff(got, packML(b.p, full)); e > 1e-13 {
				t.Errorf("%s %s: packed vs the reference's m >= 0 half: rel diff %.2e > 1e-13", tc.name, op.name, e)
			}
			requireRealM0(t, tc.name+" "+op.name, b.p, got)
		}
	}
}

// (b) The translations: M->M and L->L at all eight octants, M->L at every
// offset of the list-2 lattice, per edge and batched, against the
// reference cut to the offset's block (blockM2L) and zero above it.
func TestRealnessTranslations(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	const side = 0.125
	for _, tc := range kernels(t) {
		b := tc.k.(*base)
		ref := newRefEngine(tc.k)
		in := randPacked(rng, tc.k.MLSize())
		full := unpackML(b.p, in)
		parent := geom.Point{X: 0.5, Y: 0.5, Z: 0.5}
		check := func(what string, got, want []complex128) {
			t.Helper()
			if e := maxCoefDiff(got, want); e > 1e-12 {
				t.Errorf("%s %s: packed vs reference rel diff %.2e > 1e-12", tc.name, what, e)
			}
			requireRealM0(t, tc.name+" "+what, b.p, got)
		}
		// onSphere weighs coefficient (n, m) by rf_n(a): the size of its
		// term in the field on the projection sphere. Both engines divide a
		// sampled field by exactly these numbers, so that field is what
		// rounding lets them agree on to 1e-12 — under a random input with
		// every degree at O(1), a parent/child translation's high-degree
		// coefficients are ~1e-9 of the field and carry its rounding error.
		onSphere := func(x []complex128, rf radialFunc, a float64) []complex128 {
			rad := make([]float64, b.p+1)
			rf(a, rad)
			out := append([]complex128(nil), x...)
			for n := 0; n <= b.p; n++ {
				for m := 0; m <= n; m++ {
					out[sphharm.TriIndex(n, m)] *= complex(rad[n], 0)
				}
			}
			return out
		}
		for o := 0; o < 8; o++ {
			child := parent.Add(geom.Point{
				X: side / 2 * float64(2*(o&1)-1),
				Y: side / 2 * float64(2*(o>>1&1)-1),
				Z: side / 2 * float64(2*(o>>2&1)-1),
			})
			got := make([]complex128, len(in))
			tc.k.M2M(child, parent, side, in, got)
			want := packML(b.p, ref.translate(child, parent, b.aM2M*2*side, full, b.radOut, b.radOut))
			check("M2M", onSphere(got, b.radOut, b.aM2M*2*side), onSphere(want, b.radOut, b.aM2M*2*side))
			got = make([]complex128, len(in))
			tc.k.L2L(parent, child, side, in, got)
			want = packML(b.p, ref.translate(parent, child, b.aL2L*side, full, b.radReg, b.radReg))
			check("L2L", onSphere(got, b.radReg, b.aL2L*side), onSphere(want, b.radReg, b.aL2L*side))
		}
		offs := listTwoOffsets(t)
		ins, batched := make([][]complex128, len(offs)), make([][]complex128, len(offs))
		for i := range offs {
			ins[i], batched[i] = in, make([]complex128, len(in))
		}
		tc.k.M2LBatch(offs, side, 3, ins, batched)
		for i, off := range offs {
			to := parent.Add(off.Scale(side))
			po := m2lOrder(b.p, off)
			want := blockM2L(po, func(x []complex128) []complex128 {
				return packML(b.p, ref.translate(parent, to, b.aM2L*side, unpackML(b.p, x), b.radOut, b.radReg))
			}, in)
			got := make([]complex128, len(in))
			tc.k.M2L(parent, to, side, in, got)
			check("M2L", got, want)
			check("M2LBatch", batched[i], want)
			zeroAbove(t, tc.name+" M2L", po, got)
			zeroAbove(t, tc.name+" M2LBatch", po, batched[i])
		}
	}
}

// (b, continued) The plane-wave operators in all six directions, and (c)
// the pairing they rest on: every m_k even, ISize half the rule's terms.
func TestRealnessPlaneWaves(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	const level = 2
	for _, tc := range kernels(t) {
		b := tc.k.(*base)
		ref := newRefEngine(tc.k)
		for l, lv := range b.pw.Load().levels {
			// The rule stores the kept nodes only, so "m_k is even" reads:
			// they are the first half of a rule of 2*len nodes, which holds
			// a_j + pi for each of them.
			terms := 0
			for k, mk := range alphaCounts(lv.rule) {
				for j, c := range lv.rule.cosA[k] {
					sin, cos := math.Sincos(2 * math.Pi * float64(j) / float64(mk))
					if math.Abs(c-cos) > 1e-15 || math.Abs(lv.rule.sinA[k][j]-sin) > 1e-15 {
						t.Errorf("%s level %d: kept node %d of u-node %d is not 2 pi j / %d", tc.name, l, j, k, mk)
					}
				}
				terms += mk
			}
			if 2*tc.k.ISize(l) != terms {
				t.Errorf("%s level %d: ISize %d is not half of the rule's %d terms", tc.name, l, tc.k.ISize(l), terms)
			}
		}
		rule := b.pw.Load().levels[level].rule
		side := 1.0 / (1 << level)
		for dir := geom.Direction(0); dir < geom.NumDirections; dir++ {
			// M->I: the reference wave is conjugate-paired and its kept half
			// is what the packed operator returns.
			m := randPacked(rng, tc.k.MLSize())
			fullX := ref.m2i(dir, level, unpackML(b.p, m))
			if e := maxCoefDiff(unpackWave(rule, packWave(rule, fullX)), fullX); e > 1e-12 {
				t.Errorf("%s %v: reference wave is not conjugate-paired: rel diff %.2e", tc.name, dir, e)
			}
			x := make([]complex128, tc.k.ISize(level))
			tc.k.M2I(dir, level, m, x)
			if e := maxCoefDiff(x, packWave(rule, fullX)); e > 1e-12 {
				t.Errorf("%s %v: M2I packed vs reference rel diff %.2e > 1e-12", tc.name, dir, e)
			}
			// I->I on a box and on a half-box lattice vector (an off-lattice
			// shift panics: TestTranslationsPanicOffLattice).
			for _, shift := range []geom.Point{
				dir.RotateFromUp(geom.Point{X: side, Y: -side, Z: 2 * side}),
				dir.RotateFromUp(geom.Point{X: side / 2, Y: 1.5 * side, Z: -2.5 * side}),
			} {
				got := make([]complex128, len(x))
				tc.k.I2I(dir, level, shift, x, got)
				want := ref.i2i(dir, level, shift, unpackWave(rule, x))
				if e := maxCoefDiff(got, packWave(rule, want)); e > 1e-12 {
					t.Errorf("%s %v shift %v: I2I packed vs reference rel diff %.2e > 1e-12", tc.name, dir, shift, e)
				}
			}
			// I->L from a random half wave.
			w := randPacked(rng, tc.k.ISize(level))
			l := make([]complex128, tc.k.MLSize())
			tc.k.I2L(dir, level, w, l)
			if e := maxCoefDiff(l, packML(b.p, ref.i2l(dir, level, unpackWave(rule, w)))); e > 1e-12 {
				t.Errorf("%s %v: I2L packed vs reference rel diff %.2e > 1e-12", tc.name, dir, e)
			}
			requireRealM0(t, tc.name+" I2L", b.p, l)
			// The batched forms, on five right-hand sides (two pairs and one
			// alone through the apply), against one call per right-hand side.
			const rhs = 5
			var ms, ws, gotX, wantX, gotL, wantL [][]complex128
			for range rhs {
				ms = append(ms, randPacked(rng, tc.k.MLSize()))
				ws = append(ws, randPacked(rng, tc.k.ISize(level)))
				gotX, wantX = append(gotX, make([]complex128, tc.k.ISize(level))), append(wantX, make([]complex128, tc.k.ISize(level)))
				gotL, wantL = append(gotL, make([]complex128, tc.k.MLSize())), append(wantL, make([]complex128, tc.k.MLSize()))
			}
			tc.k.M2IBatch(dir, level, ms, gotX)
			tc.k.I2LBatch(dir, level, ws, gotL)
			for r := range rhs {
				tc.k.M2I(dir, level, ms[r], wantX[r])
				tc.k.I2L(dir, level, ws[r], wantL[r])
				if e := maxCoefDiff(gotX[r], wantX[r]); e > 1e-14 {
					t.Errorf("%s %v rhs %d: M2IBatch vs M2I rel diff %.2e > 1e-14", tc.name, dir, r, e)
				}
				if e := maxCoefDiff(gotL[r], wantL[r]); e > 1e-14 {
					t.Errorf("%s %v rhs %d: I2LBatch vs I2L rel diff %.2e > 1e-14", tc.name, dir, r, e)
				}
			}
		}
	}
}

// (d) The evaluations: M->T, L->T and their gradient forms.
func TestRealnessEvaluations(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	for _, tc := range kernels(t) {
		b := tc.k.(*base)
		ref := newRefEngine(tc.k)
		c := geom.Point{X: 0.5, Y: 0.5, Z: 0.5}
		coeff := randPacked(rng, tc.k.MLSize())
		full := unpackML(b.p, coeff)
		for _, op := range []struct {
			name string
			tpts []geom.Point
			rf   radialFunc
			eval func(geom.Point, []complex128, []geom.Point, []float64)
			grad func(geom.Point, []complex128, []geom.Point, []float64, []geom.Point)
		}{
			{"M2T", randBox(rng, c.Add(geom.Point{X: 0.5, Y: 0.25, Z: -0.25}), 0.25, 30), b.radOut, tc.k.M2T, tc.k.M2TGrad},
			{"L2T", randBox(rng, c, 0.25, 30), b.radReg, tc.k.L2T, tc.k.L2TGrad},
		} {
			n := len(op.tpts)
			want := make([]float64, n)
			wantG := make([]geom.Point, n)
			var gScale float64
			for i, tp := range op.tpts {
				v := ref.eval(c, full, op.rf, tp)
				if math.Abs(imag(v)) > 1e-12*cmplx.Abs(v) {
					t.Fatalf("%s %s: reference field is not real at target %d: %v", tc.name, op.name, i, v)
				}
				want[i] = real(v)
				wantG[i] = ref.grad(c, full, op.rf, tp)
				gScale = math.Max(gScale, wantG[i].Norm())
			}
			pot := make([]float64, n)
			op.eval(c, coeff, op.tpts, pot)
			if e := relErr(pot, want); e > 1e-12 {
				t.Errorf("%s %s: packed vs reference rel err %.2e > 1e-12", tc.name, op.name, e)
			}
			pot2, grad := make([]float64, n), make([]geom.Point, n)
			op.grad(c, coeff, op.tpts, pot2, grad)
			if e := relErr(pot2, want); e > 1e-12 {
				t.Errorf("%s %sGrad: potential vs reference rel err %.2e > 1e-12", tc.name, op.name, e)
			}
			// Both gradients difference fields of rounding error ~1e-16 over
			// a step of 1e-6 of the distance: they agree to ~1e-9.
			for i := range grad {
				if d := grad[i].Sub(wantG[i]).Norm(); d > 1e-7*gScale {
					t.Errorf("%s %sGrad: target %d gradient %v vs reference %v", tc.name, op.name, i, grad[i], wantG[i])
				}
			}
		}
	}
}

// The four point operators at p = 9 against the reference, whose Y_n^m
// comes through the angles and sphharm.AssocLegendre, not through the
// engine's Cartesian recurrence: random points, plus the ones the angle
// path special-cased — the centre itself (the zero vector, read as the north
// pole) where the regular family allows it, and points straight above and
// below the centre (phi = 0 by convention there, x + iy = 0 here).
func TestPointOperatorsMatchLegendreReference(t *testing.T) {
	rng := rand.New(rand.NewSource(106))
	for _, tc := range kernels(t) {
		b := tc.k.(*base)
		if b.p != 9 {
			t.Fatalf("%s: p = %d, this test is about p = 9", tc.name, b.p)
		}
		ref := newRefEngine(tc.k)
		c := geom.Point{X: 0.5, Y: 0.5, Z: 0.5}
		onAxis := func(pts []geom.Point, dz ...float64) []geom.Point {
			for _, d := range dz {
				pts = append(pts, c.Add(geom.Point{Z: d}))
			}
			return pts
		}
		near := onAxis(randBox(rng, c, 0.25, 40), 0, 0.1, -0.07)
		far := onAxis(randBox(rng, c.Add(geom.Point{X: -0.5, Y: 0.5, Z: 0.25}), 0.25, 40), 0.6, -0.7)
		q := randCharges(rng, len(near))
		for _, op := range []struct {
			name   string
			spts   []geom.Point
			rf     radialFunc
			packed func(geom.Point, []geom.Point, []float64, []complex128)
		}{
			{"S2M", near, b.radReg, tc.k.S2M},
			{"S2L", far, b.radOut, tc.k.S2L},
		} {
			got := make([]complex128, tc.k.MLSize())
			op.packed(c, op.spts, q[:len(op.spts)], got)
			if e := maxCoefDiff(got, packML(b.p, ref.project(c, op.spts, q[:len(op.spts)], op.rf))); e > 1e-12 {
				t.Errorf("%s %s: vs the Legendre reference rel diff %.2e > 1e-12", tc.name, op.name, e)
			}
		}
		coeff := randPacked(rng, tc.k.MLSize())
		full := unpackML(b.p, coeff)
		for _, op := range []struct {
			name string
			tpts []geom.Point
			rf   radialFunc
			eval func(geom.Point, []complex128, []geom.Point, []float64)
		}{
			{"M2T", far, b.radOut, tc.k.M2T},
			{"L2T", near, b.radReg, tc.k.L2T},
		} {
			want := make([]float64, len(op.tpts))
			for i, tp := range op.tpts {
				want[i] = real(ref.eval(c, full, op.rf, tp))
			}
			got := make([]float64, len(op.tpts))
			op.eval(c, coeff, op.tpts, got)
			if e := relErr(got, want); e > 1e-12 {
				t.Errorf("%s %s: vs the Legendre reference rel err %.2e > 1e-12", tc.name, op.name, e)
			}
		}
	}
}

// (e) The one apply allocates nothing, behind every operator that calls it:
// the single right-hand-side wrappers build their one-element blocks on the
// stack. Nor do the point operators, whose block lives in the workspace.
func TestRealnessApplyNoAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(105))
	const side, level = 0.125, 3
	for _, tc := range kernels(t) {
		m := randPacked(rng, tc.k.MLSize())
		l := make([]complex128, tc.k.MLSize())
		x := make([]complex128, tc.k.ISize(level))
		c := geom.Point{X: 0.5, Y: 0.5, Z: 0.5}
		child := c.Add(geom.Point{X: side / 2, Y: -side / 2, Z: side / 2})
		tab, n := tc.k.(*base).m2lTable(M2LOffset{DX: 2}, side)
		ins, outs := [][]complex128{m, m, m}, [][]complex128{l, make([]complex128, len(l)), make([]complex128, len(l))}
		pts, q := randBox(rng, c, side, 21), randCharges(rng, 21)
		far, pot := c.Add(geom.Point{X: 2 * side}), make([]float64, len(pts))
		for name, f := range map[string]func(){
			"applyTable": func() { applyTable(tab, n, n, ins, outs) },
			"M2M":        func() { tc.k.M2M(child, c, side, m, l) },
			"L2L":        func() { tc.k.L2L(c, child, side, m, l) },
			"M2L":        func() { tc.k.M2L(c, c.Add(geom.Point{X: 2 * side}), side, m, l) },
			"M2I":        func() { tc.k.M2I(geom.Up, level, m, x) },
			"I2L":        func() { tc.k.I2L(geom.Up, level, x, l) },
			"S2M":        func() { tc.k.S2M(c, pts, q, l) },
			"S2L":        func() { tc.k.S2L(far, pts, q, l) },
			"M2T":        func() { tc.k.M2T(far, m, pts, pot) },
			"L2T":        func() { tc.k.L2T(c, m, pts, pot) },
		} {
			f() // build the table
			if allocs := testing.AllocsPerRun(10, f); allocs != 0 {
				t.Errorf("%s %s allocates %.1f/op in steady state", tc.name, name, allocs)
			}
		}
	}
}
