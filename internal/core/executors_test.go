package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dag"
	"repro/internal/dag/dagtest"
	"repro/internal/geom"
	"repro/internal/kernel"
	"repro/internal/points"
	"repro/internal/tree"
)

// Oracle, metamorphic and degenerate-input gates through every executor —
// EvaluateSequential, ParallelEvaluation.Run and a two-rank
// DistRun over unix sockets — at the threshold the tuner picks and at
// explicit thresholds that give a root-leaf and a level-1 tree: the shapes
// small ensembles are now served with, which no path-vs-path gate reached
// while every fixture sat at 40 or 60.

// executors runs one charge vector through all three executors on plans
// built with the given method and threshold and returns each one's
// potentials. Rank 1 of the distributed run builds its own plan from the
// threshold rank 0's plan resolved, as a worker rank handed the job spec does.
func executors(t *testing.T, sp, tp []geom.Point, q []float64, k kernel.Kernel, opts Options) (*Plan, map[string][]float64) {
	t.Helper()
	plan, err := NewPlan(sp, tp, k, opts)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]float64{}
	if out["EvaluateSequential"], err = plan.EvaluateSequential(q); err != nil {
		t.Fatal(err)
	}
	pe, err := plan.NewParallelEvaluation(ExecOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if out["ParallelEvaluation.Run"], _, err = pe.Run(q); err != nil {
		t.Fatal(err)
	}
	before := TunerEntries()
	rank1, err := NewPlan(sp, tp, k, Options{Method: opts.Method, Threshold: plan.Threshold()})
	if err != nil {
		t.Fatal(err)
	}
	if TunerEntries() != before || len(rank1.Graph.Nodes) != len(plan.Graph.Nodes) || rank1.Graph.EdgeCount != plan.Graph.EdgeCount {
		t.Fatalf("rank 1 built from the resolved threshold %d: tuner entered %d times, %d nodes / edges %v against rank 0's %d / %v",
			plan.Threshold(), TunerEntries()-before, len(rank1.Graph.Nodes), rank1.Graph.EdgeCount, len(plan.Graph.Nodes), plan.Graph.EdgeCount)
	}
	dw := &distWorld{t: t, plans: []*Plan{plan, rank1}, q: q}
	pot, _, errs := dw.run(distCtx(t), distClusters(t, 2), distOpts)
	for r, err := range errs {
		if err != nil {
			t.Fatalf("DistRun rank %d: %v", r, err)
		}
	}
	out["DistRun"] = pot
	return plan, out
}

// leafSize is one threshold a gate below runs at.
type leafSize struct {
	name      string
	threshold int
}

// thresholdsFor names the three leaf sizes every gate below runs at: the
// tuner's, a single leaf, and (for a roughly uniform ensemble) level 1.
func thresholdsFor(n int) []leafSize {
	return []leafSize{{"auto", 0}, {"depth0", n}, {"depth1", max(n/4, 1)}}
}

// paperLeaves is the paper's threshold: few enough points per leaf that a
// small ensemble still has a far field.
var paperLeaves = leafSize{"paper", tree.Threshold}

// againstDirect compares potentials with direct summation over the sampled
// targets: relative L2 within tol, or exactly zero where the reference is
// (coincident points interact with nothing).
func againstDirect(t *testing.T, what string, got []float64, k kernel.Kernel, sp []geom.Point, q []float64, tp []geom.Point, idx []int, tol float64) {
	t.Helper()
	if len(got) != len(tp) {
		t.Fatalf("%s: %d potentials for %d targets", what, len(got), len(tp))
	}
	ref := directRef(k, sp, q, tp, idx)
	var num, den float64
	for _, i := range idx {
		if math.IsNaN(got[i]) || math.IsInf(got[i], 0) {
			t.Fatalf("%s: potential %d is %v", what, i, got[i])
		}
		num += (got[i] - ref[i]) * (got[i] - ref[i])
		den += ref[i] * ref[i]
	}
	if den == 0 {
		if num != 0 {
			t.Errorf("%s: direct sum is zero everywhere, got an error norm of %.3g", what, math.Sqrt(num))
		}
		return
	}
	if e := math.Sqrt(num / den); e > tol {
		t.Errorf("%s: rel L2 %.2e against direct summation > %.0e", what, e, tol)
	}
}

// The potentials match direct summation to the requested digits through
// every executor at every leaf size. The cubes are large enough that the
// tuned plan has a far field (checked) at the portable pair loop's price,
// which the Laplace cases pin so that a machine with a faster loop — and a
// higher crossover — tunes to the same trees: the crossover moves up with
// the digits too, and a root-leaf or level-1 plan involves no expansion at
// all, so six digits — a p=18 table set — run at the tuned leaf size alone.
func TestOracleEveryExecutorEveryLeafSize(t *testing.T) {
	yukawa := func(p int) kernel.Kernel { return kernel.NewYukawa(p, 4.0) }
	laplace := func(p int) kernel.Kernel { return portablePriced(kernel.NewLaplace(p)) }
	cases := []struct {
		name     string
		distr    points.Distribution
		n        int
		kernel   func(p int) kernel.Kernel
		digits   int
		autoOnly bool
		farField bool // the tuned plan must have one
	}{
		{"cube/laplace", points.Cube, 8000, laplace, 3, false, true},
		{"cube/laplace", points.Cube, 13000, laplace, 6, true, true},
		{"sphere/yukawa", points.Sphere, 3000, yukawa, 3, false, false},
	}
	for _, c := range cases {
		if c.digits > 3 && (raceEnabled || testing.Short()) {
			continue
		}
		n := c.n
		if raceEnabled {
			n /= 4 // the depth-0 plan is an N^2 loop per executor
		}
		sp := points.Generate(c.distr, n, 81)
		tp := points.Generate(c.distr, n, 82)
		q := points.Charges(n, 83)
		idx := sampleIdx(rand.New(rand.NewSource(84)), n, 200)
		ths := thresholdsFor(n)
		if c.autoOnly {
			ths = ths[:1]
		}
		for _, th := range ths {
			k := c.kernel(kernel.OrderForDigits(c.digits))
			plan, pots := executors(t, sp, tp, q, k, Options{Threshold: th.threshold})
			if th.threshold == 0 && c.farField && !raceEnabled {
				dagtest.RequireFarField(t, plan.Graph)
			}
			for name, pot := range pots {
				what := fmt.Sprintf("%s N=%d, %d digits, %s (threshold %d), %s", c.name, n, c.digits, th.name, plan.Threshold(), name)
				againstDirect(t, what, pot, k, sp, q, tp, idx, math.Pow(10, -float64(c.digits)))
			}
		}
	}
}

// Reordering the sources (charges with them) or the targets permutes the
// potentials and nothing else, at 1e-10 on the float64 pair loop (at f32Tol
// on a float32 one, whose narrowing origin follows the points a leaf's
// block holds), through every executor at every
// leaf size: the tree sorts points into leaves, and only the summation order
// inside a leaf may notice where they came from. The Basic method runs where
// it differs from the default one — at the paper's threshold, which leaves
// these points a far field.
func TestOraclePermutationInvariance(t *testing.T) {
	n := 4000
	if raceEnabled {
		n = 1200
	}
	sp := points.Generate(points.Sphere, n, 91)
	tp := points.Generate(points.Sphere, n, 92)
	q := points.Charges(n, 93)
	rng := rand.New(rand.NewSource(94))
	ps, pt := rng.Perm(n), rng.Perm(n)
	sp2, tp2, q2 := make([]geom.Point, n), make([]geom.Point, n), make([]float64, n)
	for i := range ps {
		sp2[i], q2[i] = sp[ps[i]], q[ps[i]]
		tp2[i] = tp[pt[i]]
	}
	p := kernel.OrderForDigits(3)
	type run struct {
		leafSize
		method dag.Method
	}
	runs := []run{{paperLeaves, dag.Basic}}
	for _, th := range append(thresholdsFor(n), paperLeaves) {
		runs = append(runs, run{th, dag.Advanced})
	}
	for _, r := range runs {
		for _, newK := range []func(int) kernel.Kernel{kernel.NewLaplace, kernel.NewLaplaceFloat64} {
			opts := Options{Method: r.method, Threshold: r.threshold}
			k := newK(p)
			_, base := executors(t, sp, tp, q, k, opts)
			_, perm := executors(t, sp2, tp2, q2, newK(p), opts)
			for name, got := range perm {
				want := make([]float64, n)
				for i := range want {
					want[i] = base[name][pt[i]]
				}
				if e, tol := relL2(got, want, nil), metaTol(k, 1e-10); !(e <= tol) {
					t.Errorf("%s %v, %s pair loop, %s: permuted ensembles differ by rel L2 %.2e > %.0e", r.name, r.method, kernel.PairKernel(k), name, e, tol)
				}
			}
		}
	}
}

// Degenerate ensembles return finite potentials equal to direct summation
// at three digits, through every executor at every leaf size and at the
// paper's threshold (where a line or a plane of points still has a far
// field): one point, all points coincident (the tree stops at MaxDepth
// instead of recursing forever), collinear, planar, and coordinates of
// magnitude 1e±12.
func TestDegenerateEnsembles(t *testing.T) {
	n := 900
	if raceEnabled {
		n = 300
	}
	cube := points.Generate(points.Cube, n, 95)
	shape := func(f func(p geom.Point) geom.Point) []geom.Point {
		out := make([]geom.Point, n)
		for i, p := range cube {
			out[i] = f(p)
		}
		return out
	}
	cases := []struct {
		name string
		pts  []geom.Point
	}{
		{"one point", cube[:1]},
		{"coincident", shape(func(geom.Point) geom.Point { return geom.Point{X: 0.3, Y: -0.2, Z: 0.7} })},
		{"collinear", shape(func(p geom.Point) geom.Point { return geom.Point{X: p.X, Y: 2 * p.X, Z: -p.X} })},
		{"planar", shape(func(p geom.Point) geom.Point { return geom.Point{X: p.X, Y: p.Y, Z: 0.5} })},
		{"scaled 1e+12", shape(func(p geom.Point) geom.Point { return p.Scale(1e12) })},
		{"scaled 1e-12", shape(func(p geom.Point) geom.Point { return p.Scale(1e-12) })},
	}
	for _, c := range cases {
		m := len(c.pts)
		q := points.Charges(m, 96)
		idx := sampleIdx(rand.New(rand.NewSource(97)), m, min(m, 200))
		ths := thresholdsFor(m)
		if m > tree.Threshold {
			ths = append(ths, paperLeaves)
		}
		for _, th := range ths {
			k := kernel.NewLaplace(kernel.OrderForDigits(3))
			plan, pots := executors(t, c.pts, c.pts, q, k, Options{Threshold: th.threshold})
			for name, pot := range pots {
				what := fmt.Sprintf("%s, %s (threshold %d, level %d), %s", c.name, th.name, plan.Threshold(), plan.MaxLevel(), name)
				againstDirect(t, what, pot, k, c.pts, q, c.pts, idx, 1e-3)
			}
		}
	}
}
