package core

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dag"
	"repro/internal/geom"
	"repro/internal/kernel"
	"repro/internal/points"
	"repro/internal/tree"
)

// Oracle and metamorphic gates on both FMM methods — Advanced, the default
// plane-wave path, and Basic, the dense M->L one. Unlike the 1e-12
// path-vs-path gates these compare the evaluator with mathematics — a
// direct sum, or a property the potential must have — so they keep meaning
// when a change rewrites every coefficient (compressed rules, real-only
// storage) and the old build is no longer a reference.

// fmmMethods are the two methods every metamorphic gate runs on (paperPlan:
// at the paper's threshold, so that a few thousand points keep a far field).
var fmmMethods = []dag.Method{dag.Advanced, dag.Basic}

type oracleCase struct {
	distr  points.Distribution
	name   string
	kernel func(p int) kernel.Kernel
}

// oracleCases are each kernel as its constructor binds it (a float32 near
// field at three digits where the CPU has one) and on the float64 pair
// loop, on the cube and on the sphere.
func oracleCases() []oracleCase {
	yuk := func(p int) kernel.Kernel { return kernel.NewYukawa(p, 4.0) }
	yuk64 := func(p int) kernel.Kernel { return kernel.NewYukawaFloat64(p, 4.0) }
	var cs []oracleCase
	for _, d := range []points.Distribution{points.Cube, points.Sphere} {
		cs = append(cs,
			oracleCase{d, fmt.Sprintf("%v/laplace", d), kernel.NewLaplace},
			oracleCase{d, fmt.Sprintf("%v/laplace-f64", d), kernel.NewLaplaceFloat64},
			oracleCase{d, fmt.Sprintf("%v/yukawa", d), yuk},
			oracleCase{d, fmt.Sprintf("%v/yukawa-f64", d), yuk64})
	}
	return cs
}

// f32Tol is what a metamorphic gate holds a kernel to whose near field runs
// a float32 pair loop: the five digits those loops are certified at
// (internal/kernel, TestFloat32PairOrder). The same gate holds the float64
// bindings (kernel.NewLaplaceFloat64, kernel.NewYukawaFloat64) to its own
// tolerance.
const f32Tol = 1e-5

// metaTol is a gate's tolerance for kernel k: tol, or f32Tol where k binds a
// float32 pair loop (kernel.PairKernel "…-f32").
func metaTol(k kernel.Kernel, tol float64) float64 {
	if strings.HasSuffix(kernel.PairKernel(k), "-f32") {
		return max(tol, f32Tol)
	}
	return tol
}

// relL2 is ||got - want|| / ||want|| over the given target indices (all of
// them when idx is nil).
func relL2(got, want []float64, idx []int) float64 {
	var num, den float64
	add := func(i int) {
		num += (got[i] - want[i]) * (got[i] - want[i])
		den += want[i] * want[i]
	}
	if idx == nil {
		for i := range want {
			add(i)
		}
	} else {
		for _, i := range idx {
			add(i)
		}
	}
	return math.Sqrt(num / den)
}

// (i) The evaluator is linear in the charges.
func TestOracleLinearityInCharges(t *testing.T) {
	n := 3000
	if raceEnabled {
		t.Skip("sequential property: nothing to instrument")
	}
	const a = -2.75
	for _, oc := range oracleCases() {
		sp := points.Generate(oc.distr, n, 51)
		tp := points.Generate(oc.distr, n, 52)
		q1, q2 := points.Charges(n, 53), points.Charges(n, 54)
		mix := make([]float64, n)
		for i := range mix {
			mix[i] = a*q1[i] + q2[i]
		}
		for _, m := range fmmMethods {
			k := oc.kernel(kernel.OrderForDigits(3))
			plan := paperPlan(t, m, sp, tp, k)
			var phi [3][]float64
			var err error
			for i, q := range [][]float64{q1, q2, mix} {
				if phi[i], err = plan.EvaluateSequential(q); err != nil {
					t.Fatal(err)
				}
			}
			want := make([]float64, n)
			for i := range want {
				want[i] = a*phi[0][i] + phi[1][i]
			}
			if e, tol := relL2(phi[2], want, nil), metaTol(k, 1e-10); !(e <= tol) {
				t.Errorf("%s %v: Phi(a q1 + q2) vs a Phi(q1) + Phi(q2): rel L2 %.2e > %.0e", oc.name, m, e, tol)
			}
		}
	}
}

// (ii) 1/r is translation invariant and homogeneous of degree -1: moving
// and scaling both ensembles rigidly, x -> s x + t, gives Phi/s. Each plan
// gets a fresh kernel (a kernel serves one root cube). The 1e-10 map puts
// the boxes far below unit side, where the lattice tolerances must be
// relative to the side.
func TestOracleLaplaceTranslationAndScale(t *testing.T) {
	if raceEnabled {
		t.Skip("sequential property: nothing to instrument")
	}
	const n = 3000
	maps := []struct {
		s float64
		t geom.Point
	}{
		{1, geom.Point{X: 0.3, Y: -1.7, Z: 2.2}},
		{0.37, geom.Point{X: -5, Y: 0.125, Z: 40}},
		{1e-10, geom.Point{X: 3e-10, Y: -1e-10}},
	}
	for _, d := range []points.Distribution{points.Cube, points.Sphere} {
		sp := points.Generate(d, n, 61)
		tp := points.Generate(d, n, 62)
		q := points.Charges(n, 63)
		p := kernel.OrderForDigits(3)
		for _, newK := range []func(int) kernel.Kernel{kernel.NewLaplace, kernel.NewLaplaceFloat64} {
			for _, method := range fmmMethods {
				k := newK(p)
				base, err := paperPlan(t, method, sp, tp, k).EvaluateSequential(q)
				if err != nil {
					t.Fatal(err)
				}
				for _, m := range maps {
					got, err := paperPlan(t, method, affine(sp, m.s, m.t), affine(tp, m.s, m.t), newK(p)).EvaluateSequential(q)
					if err != nil {
						t.Fatal(err)
					}
					want := make([]float64, n)
					for i := range want {
						want[i] = base[i] / m.s
					}
					if e, tol := relL2(got, want, nil), metaTol(k, 1e-10); !(e <= tol) {
						t.Errorf("%v %v, %s pair loop: x -> %g x + %v: rel L2 %.2e > %.0e", d, method, kernel.PairKernel(k), m.s, m.t, e, tol)
					}
				}
			}
		}
	}
}

// (iii) The potentials match direct summation to the requested digits on
// 200 seeded targets, on both methods, at N = 2000. Six digits (p = 17
// tables, and for Laplace the 865-term plane-wave rule of that order) runs
// on every case but Advanced on cube/Yukawa; Laplace also runs at three
// digits on a neutral and an offset cube. Basic is the method whose list-2
// M->L tables have per-offset orders (package kernel, m2lOrder). Each
// case also logs the worst error over the rms potential.
// (Known floor: Yukawa's plane-wave rule does not grow with the requested
// digits, and sphere/Yukawa at N = 3000 stalls at 4.4e-6 whether 3 or 6
// digits are asked for — ROADMAP, item 1d.)
func TestOracleDirectSumAtRequestedDigits(t *testing.T) {
	if raceEnabled {
		t.Skip("sequential accuracy gate: nothing to instrument")
	}
	const n = 2000
	for _, oc := range oracleCases() {
		sp := points.Generate(oc.distr, n, 71)
		tp := points.Generate(oc.distr, n, 72)
		q := points.Charges(n, 73)
		for _, m := range fmmMethods {
			for _, digits := range []int{3, 6} {
				if m == dag.Advanced && digits == 6 && oc.distr == points.Cube && strings.Contains(oc.name, "yukawa") {
					continue
				}
				k := oc.kernel(kernel.OrderForDigits(digits))
				got, err := paperPlan(t, m, sp, tp, k).EvaluateSequential(q)
				if err != nil {
					t.Fatal(err)
				}
				idx := sampleIdx(rand.New(rand.NewSource(74)), n, 200)
				ref := directRef(k, sp, q, tp, idx)
				want := make([]float64, n)
				for i, v := range ref {
					want[i] = v
				}
				tol := math.Pow(10, -float64(digits))
				if e := relL2(got, want, idx); e > tol {
					t.Errorf("%s %v at %d digits: rel L2 %.2e > %.0e", oc.name, m, digits, e, tol)
				} else {
					t.Logf("%s %v at %d digits: rel L2 %.2e, worst |err| / rms |phi| %.2e", oc.name, m, digits, e, worstOverRMS(got, want, idx))
				}
			}
		}
	}
	// Laplace at three digits, as NewLaplace binds it (a float32 near field
	// where the CPU has one), on two ensembles that stress it: charges of
	// both signs summing to zero, so a potential is a small difference of
	// large sums; and the cube centred at 1e6, where a float32 image of the
	// absolute coordinates would keep no digit of a leaf.
	for _, v := range []struct {
		name    string
		shift   float64
		neutral bool
	}{{"cube, neutral charges", 0, true}, {"cube at 1e6", 1e6, false}} {
		sp := affine(points.Generate(points.Cube, n, 75), 1, geom.Point{X: v.shift, Y: v.shift, Z: v.shift})
		tp := affine(points.Generate(points.Cube, n, 76), 1, geom.Point{X: v.shift, Y: v.shift, Z: v.shift})
		q := points.Charges(n, 77)
		if v.neutral {
			var mean float64
			for _, x := range q {
				mean += x / n
			}
			for i := range q {
				q[i] -= mean
			}
		}
		k := kernel.NewLaplace(kernel.OrderForDigits(3))
		got, err := advancedPlan(t, sp, tp, k).EvaluateSequential(q)
		if err != nil {
			t.Fatal(err)
		}
		idx := sampleIdx(rand.New(rand.NewSource(78)), n, 200)
		want := make([]float64, n)
		for i, x := range directRef(k, sp, q, tp, idx) {
			want[i] = x
		}
		if e := relL2(got, want, idx); !(e <= 1e-3) {
			t.Errorf("%s, %s pair loop, at 3 digits: rel L2 %.2e > 1e-3", v.name, kernel.PairKernel(k), e)
		} else {
			t.Logf("%s, %s pair loop, at 3 digits: rel L2 %.2e", v.name, kernel.PairKernel(k), e)
		}
	}
}

// worstOverRMS is max |got - want| over rms |want| on the given targets.
func worstOverRMS(got, want []float64, idx []int) float64 {
	var worst, ss float64
	for _, i := range idx {
		worst = max(worst, math.Abs(got[i]-want[i]))
		ss += want[i] * want[i]
	}
	return worst / math.Sqrt(ss/float64(len(idx)))
}

// (iv) Superposition of ensembles: Phi[A ∪ B] = Phi[A] + Phi[B] at the same
// targets. Three plans over different source sets agree to rounding rather
// than to truncation error only if they expand about the same boxes, so B
// shadows A — the same points moved by 1e-9, far below any box size, with
// charges of their own — and the union's plan, whose every box then holds
// exactly twice the sources and (its targets shadowed too) twice the
// targets, refines at twice the threshold: the same trees, lists and DAG,
// checked. On the sphere that covers the adaptive lists (M->T, S->L) too.
func TestOracleSuperpositionOfEnsembles(t *testing.T) {
	if raceEnabled {
		t.Skip("sequential property: nothing to instrument")
	}
	const n = 3000
	shadow := func(pts []geom.Point) []geom.Point {
		return affine(pts, 1, geom.Point{X: 1e-9, Y: -1e-9, Z: 1e-9})
	}
	for _, oc := range oracleCases() {
		a := points.Generate(oc.distr, n, 111)
		b := shadow(a)
		tp := points.Generate(oc.distr, n, 112)
		qa, qb := points.Charges(n, 113), points.Charges(n, 114)
		for _, m := range fmmMethods {
			k := func() kernel.Kernel { return oc.kernel(kernel.OrderForDigits(3)) }
			planA := paperPlan(t, m, a, tp, k())
			planB := paperPlan(t, m, b, tp, k())
			union := farFieldPlan(t, append(append([]geom.Point{}, a...), b...), append(append([]geom.Point{}, tp...), shadow(tp)...),
				k(), Options{Method: m, Threshold: 2 * tree.Threshold})
			for _, p := range []*Plan{planB, union} {
				if len(p.Graph.Nodes) != len(planA.Graph.Nodes) || p.Graph.EdgeCount != planA.Graph.EdgeCount {
					t.Fatalf("%s %v: fixture: plans differ in structure: %d nodes / edges %v against %d / %v",
						oc.name, m, len(p.Graph.Nodes), p.Graph.EdgeCount, len(planA.Graph.Nodes), planA.Graph.EdgeCount)
				}
			}
			phiA, err := planA.EvaluateSequential(qa)
			if err != nil {
				t.Fatal(err)
			}
			phiB, err := planB.EvaluateSequential(qb)
			if err != nil {
				t.Fatal(err)
			}
			phiU, err := union.EvaluateSequential(append(append([]float64{}, qa...), qb...))
			if err != nil {
				t.Fatal(err)
			}
			want := make([]float64, n)
			for i := range want {
				want[i] = phiA[i] + phiB[i]
			}
			if e, tol := relL2(phiU[:n], want, nil), metaTol(planA.Kernel, 1e-10); !(e <= tol) {
				t.Errorf("%s %v: Phi[A ∪ B] vs Phi[A] + Phi[B]: rel L2 %.2e > %.0e", oc.name, m, e, tol)
			}
		}
	}
}

// maxAbs is the largest |v| of a potential vector.
func maxAbs(v []float64) float64 {
	var m float64
	for _, x := range v {
		m = math.Max(m, math.Abs(x))
	}
	return m
}
