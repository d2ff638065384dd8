package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/dag"
	"repro/internal/geom"
	"repro/internal/kernel"
	"repro/internal/points"
)

// directRef computes reference potentials with the O(N^2) sum on a sample
// of target indices (full direct sums are too slow for the larger cases).
func directRef(k kernel.Kernel, spts []geom.Point, q []float64, tpts []geom.Point, sample []int) map[int]float64 {
	out := make(map[int]float64, len(sample))
	for _, ti := range sample {
		var acc float64
		for si, sp := range spts {
			acc += q[si] * k.Direct(tpts[ti], sp)
		}
		out[ti] = acc
	}
	return out
}

func sampleIdx(rng *rand.Rand, n, count int) []int {
	idx := make([]int, count)
	for i := range idx {
		idx[i] = rng.Intn(n)
	}
	return idx
}

// maxRelErr compares got against the reference sample, normalizing by the
// largest reference magnitude (the standard FMM accuracy metric).
func maxRelErr(got []float64, ref map[int]float64) float64 {
	var num, den float64
	for i, want := range ref {
		if d := math.Abs(got[i] - want); d > num {
			num = d
		}
		if m := math.Abs(want); m > den {
			den = m
		}
	}
	return num / den
}

// TestAccuracyEndToEnd is the paper's 3-digit accuracy gate (Section V-A):
// both kernels, both distributions, distinct source and target ensembles,
// threshold 60.
func TestAccuracyEndToEnd(t *testing.T) {
	if raceEnabled {
		t.Skip("sequential accuracy gate: no concurrency to instrument, ~10x slower under race")
	}
	const n = 6000
	p := kernel.OrderForDigits(3)
	for _, distrib := range []points.Distribution{points.Cube, points.Sphere} {
		sp := points.Generate(distrib, n, 11)
		tp := points.Generate(distrib, n, 22)
		q := points.Charges(n, 33)
		for _, k := range []kernel.Kernel{kernel.NewLaplace(p), kernel.NewYukawa(p, 4.0)} {
			plan, err := NewPlan(sp, tp, k, Options{Threshold: 60})
			if err != nil {
				t.Fatal(err)
			}
			got, err := plan.EvaluateSequential(q)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(44))
			ref := directRef(k, sp, q, tp, sampleIdx(rng, n, 50))
			if e := maxRelErr(got, ref); e > 1.5e-3 {
				t.Errorf("%v/%s: rel err %.2e > 1.5e-3", distrib, k.Name(), e)
			} else {
				t.Logf("%v/%s: rel err %.2e", distrib, k.Name(), e)
			}
		}
	}
}

// TestAccuracyM2LPaths extends the E9 gate to the two paths the M→L edges
// take through the operator tables: per edge (the sequential walker) and
// batched by lattice offset (a 2-worker ParallelEvaluation). Both must pass
// the 3-digit gate against direct summation — for both kernels, on the cube
// and sphere distributions — and agree with each other to 1e-12. (The tables
// themselves are held against an independent projection by the kernel's
// TestM2LCachedMatchesProjection.)
func TestAccuracyM2LPaths(t *testing.T) {
	if raceEnabled {
		t.Skip("sequential accuracy gate: no concurrency to instrument, ~10x slower under race")
	}
	const n = 600
	p := kernel.OrderForDigits(3)
	for _, distrib := range []points.Distribution{points.Cube, points.Sphere} {
		sp := points.Generate(distrib, n, 11)
		tp := points.Generate(distrib, n, 22)
		q := points.Charges(n, 33)
		for _, k := range []kernel.Kernel{kernel.NewLaplace(p), kernel.NewYukawa(p, 4.0)} {
			plan, err := NewPlan(sp, tp, k, Options{Method: dag.Basic, Threshold: 60})
			if err != nil {
				t.Fatal(err)
			}
			// Guard against a vacuous pass: the plan must actually carry
			// M2L edges for the tables to translate.
			if plan.Graph.EdgeCount[dag.OpM2L] == 0 {
				t.Fatalf("%v/%s: basic plan has no M2L edges", distrib, k.Name())
			}
			perEdge, err := plan.EvaluateSequential(q)
			if err != nil {
				t.Fatal(err)
			}
			batched, _, err := plan.Evaluate(q, ExecOptions{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(44))
			ref := directRef(k, sp, q, tp, sampleIdx(rng, n, 50))
			if e := maxRelErr(perEdge, ref); e > 1.5e-3 {
				t.Errorf("%v/%s per-edge M2L: rel err %.2e > 1.5e-3", distrib, k.Name(), e)
			}
			if e := maxRelErr(batched, ref); e > 1.5e-3 {
				t.Errorf("%v/%s batched M2L: rel err %.2e > 1.5e-3", distrib, k.Name(), e)
			}
			assertSame(t, batched, perEdge, 1e-12)
		}
	}
}

func TestAccuracyBasicMethodMatchesAdvanced(t *testing.T) {
	if raceEnabled {
		t.Skip("sequential accuracy gate: no concurrency to instrument, ~10x slower under race")
	}
	const n = 4000
	sp := points.Generate(points.Cube, n, 1)
	tp := points.Generate(points.Cube, n, 2)
	q := points.Charges(n, 3)
	k := kernel.NewLaplace(kernel.OrderForDigits(3))
	adv, err := NewPlan(sp, tp, k, Options{Method: dag.Advanced, Threshold: 40})
	if err != nil {
		t.Fatal(err)
	}
	bas, err := NewPlan(sp, tp, k, Options{Method: dag.Basic, Threshold: 40})
	if err != nil {
		t.Fatal(err)
	}
	a, err := adv.EvaluateSequential(q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := bas.EvaluateSequential(q)
	if err != nil {
		t.Fatal(err)
	}
	var den float64
	for i := range b {
		if m := math.Abs(b[i]); m > den {
			den = m
		}
	}
	for i := range a {
		if math.Abs(a[i]-b[i])/den > 2e-3 {
			t.Fatalf("advanced and basic disagree at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestAccuracyBarnesHut(t *testing.T) {
	const n = 5000
	sp := points.Generate(points.Plummer, n, 5)
	tp := points.Generate(points.Plummer, n, 6)
	q := points.UnitCharges(n)
	k := kernel.NewLaplace(6)
	plan, err := NewPlan(sp, tp, k, Options{Method: dag.BarnesHut, Threshold: 30, Theta: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	got, err := plan.EvaluateSequential(q)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	ref := directRef(k, sp, q, tp, sampleIdx(rng, n, 40))
	if e := maxRelErr(got, ref); e > 5e-3 {
		t.Errorf("barnes-hut rel err %.2e > 5e-3", e)
	}
}

func TestIdenticalEnsembles(t *testing.T) {
	// The traditional N-body case: each point is both source and target;
	// self-interaction must be excluded.
	const n = 3000
	pts := points.Generate(points.Cube, n, 9)
	q := points.Charges(n, 10)
	k := kernel.NewLaplace(kernel.OrderForDigits(3))
	plan, err := NewPlan(pts, pts, k, Options{Threshold: 40})
	if err != nil {
		t.Fatal(err)
	}
	got, err := plan.EvaluateSequential(q)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	ref := directRef(k, pts, q, pts, sampleIdx(rng, n, 40))
	if e := maxRelErr(got, ref); e > 1.5e-3 {
		t.Errorf("identical ensembles rel err %.2e", e)
	}
}

func TestDisjointEnsemblesWithPruning(t *testing.T) {
	// Disjoint corner clusters exercise target-subtree pruning end to end.
	rng := rand.New(rand.NewSource(12))
	const n = 3000
	sp := make([]geom.Point, n)
	tp := make([]geom.Point, n)
	for i := 0; i < n; i++ {
		sp[i] = geom.Point{X: rng.Float64() * 0.25, Y: rng.Float64() * 0.25, Z: rng.Float64() * 0.25}
		tp[i] = geom.Point{X: 0.7 + rng.Float64()*0.3, Y: 0.7 + rng.Float64()*0.3, Z: 0.7 + rng.Float64()*0.3}
	}
	q := points.Charges(n, 13)
	k := kernel.NewLaplace(kernel.OrderForDigits(3))
	plan, err := NewPlan(sp, tp, k, Options{Threshold: 30})
	if err != nil {
		t.Fatal(err)
	}
	pruned := 0
	for _, b := range plan.Target.Boxes {
		if b.Pruned {
			pruned++
		}
	}
	if pruned == 0 {
		t.Error("expected pruned target boxes for disjoint ensembles")
	}
	got, err := plan.EvaluateSequential(q)
	if err != nil {
		t.Fatal(err)
	}
	ref := directRef(k, sp, q, tp, sampleIdx(rng, n, 40))
	if e := maxRelErr(got, ref); e > 1.5e-3 {
		t.Errorf("disjoint ensembles rel err %.2e", e)
	}
}

func TestPlanReuseAcrossCharges(t *testing.T) {
	for _, k := range []kernel.Kernel{kernel.NewLaplaceFloat64(7), kernel.NewLaplace(7)} {
		planReuseAcrossCharges(t, k, metaTol(k, 1e-12))
	}
}

func planReuseAcrossCharges(t *testing.T, k kernel.Kernel, tol float64) {
	// The paper's iterative use case: one DAG, many charge vectors.
	const n = 2000
	sp := points.Generate(points.Cube, n, 14)
	tp := points.Generate(points.Cube, n, 15)
	plan, err := NewPlan(sp, tp, k, Options{Threshold: 40})
	if err != nil {
		t.Fatal(err)
	}
	q1 := points.Charges(n, 16)
	q2 := points.Charges(n, 17)
	a1, _ := plan.EvaluateSequential(q1)
	a2, _ := plan.EvaluateSequential(q2)
	// Linearity: evaluating q1+q2 must equal the sum of the evaluations.
	q3 := make([]float64, n)
	for i := range q3 {
		q3[i] = q1[i] + q2[i]
	}
	a3, _ := plan.EvaluateSequential(q3)
	var den float64
	for i := range a3 {
		if m := math.Abs(a3[i]); m > den {
			den = m
		}
	}
	for i := range a3 {
		if math.Abs(a3[i]-a1[i]-a2[i])/den > tol {
			t.Fatalf("%s pair loop: linearity violated at %d", kernel.PairKernel(k), i)
		}
	}
}

func TestNewPlanRejectsEmpty(t *testing.T) {
	k := kernel.NewLaplace(4)
	if _, err := NewPlan(nil, points.Generate(points.Cube, 10, 1), k, Options{}); err == nil {
		t.Error("empty sources accepted")
	}
	if _, err := NewPlan(points.Generate(points.Cube, 10, 1), nil, k, Options{}); err == nil {
		t.Error("empty targets accepted")
	}
}

func TestEvaluateRejectsWrongChargeCount(t *testing.T) {
	sp := points.Generate(points.Cube, 100, 1)
	tp := points.Generate(points.Cube, 100, 2)
	k := kernel.NewLaplace(4)
	plan, err := NewPlan(sp, tp, k, Options{Threshold: 20})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.EvaluateSequential(make([]float64, 99)); err == nil {
		t.Error("wrong charge count accepted")
	}
}

// Every payload of an evaluation context lives in one slab laid out once per
// plan: each expansion node's range starts on a cache line and ends before
// the next node's, holds its expansion or its waves at the kernel's sizes
// and in the wire's order, and S and T nodes have none. A context costs the
// same few allocations whatever the size of its graph.
func TestStatePayloadLayout(t *testing.T) {
	plan := func(m dag.Method, n, threshold int) *Plan {
		p, err := NewPlan(points.Generate(points.Cube, n, 1), points.Generate(points.Cube, n, 2),
			kernel.NewLaplace(3), Options{Method: m, Threshold: threshold})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	small, large := plan(dag.Advanced, 1000, 40), plan(dag.Advanced, 16000, 40)
	for _, p := range []*Plan{plan(dag.Basic, 2000, 16), large} {
		st, k := p.newState(false), p.Kernel
		var prevHi int
		waves := map[bool]int{}
		for i := range p.Graph.Nodes {
			n := &p.Graph.Nodes[i]
			pl, sp := st.payload(n.ID), p.spans[i]
			if sp.lo < prevHi {
				t.Fatalf("%v node %d: its range starts at %d, inside the previous one (ends %d)", p.Graph.Method, i, sp.lo, prevHi)
			}
			prevHi = sp.hi
			at := 0
			next := func(v []complex128, size int, what string) {
				if len(v) != size || (size > 0 && &v[0] != &pl[at]) {
					t.Fatalf("%v node %d (%v): %s is %d coefficients at its payload's %d, want %d",
						p.Graph.Method, i, n.Kind, what, len(v), at, size)
				}
				at += size
			}
			switch n.Kind {
			case dag.NodeM, dag.NodeL:
				next(st.exp(n.ID), k.MLSize(), "the expansion")
			case dag.NodeIs, dag.NodeIt:
				for _, merged := range []bool{false, true} {
					mask, lvl := n.OwnMask, n.Level()
					if merged {
						mask, lvl = n.MergedMask, lvl+1
					}
					for d := range geom.NumDirections {
						if mask&(1<<d) != 0 {
							next(st.wave(n.ID, d, merged), k.ISize(lvl), fmt.Sprintf("wave %d (merged %v)", d, merged))
							waves[merged]++
						}
					}
				}
			}
			if at != len(pl) {
				t.Fatalf("%v node %d (%v): %d payload coefficients, its vectors hold %d", p.Graph.Method, i, n.Kind, len(pl), at)
			}
			if addr := uintptr(unsafe.Pointer(unsafe.SliceData(pl))); len(pl) > 0 && addr%64 != 0 {
				t.Fatalf("%v node %d: payload at %#x, not on a 64-byte line", p.Graph.Method, i, addr)
			}
		}
		if p.Graph.Method == dag.Advanced && (waves[false] == 0 || waves[true] == 0) {
			t.Fatalf("the advanced plan has %d own and %d merged waves: the layout of both goes unchecked", waves[false], waves[true])
		}
	}
	if raceEnabled {
		return
	}
	allocs := func(p *Plan) float64 { return testing.AllocsPerRun(10, func() { p.newState(true) }) }
	if a, b := allocs(small), allocs(large); a != b || a > 5 {
		t.Errorf("newState: %v allocations for %d nodes, %v for %d: want the same few", a, len(small.Graph.Nodes), b, len(large.Graph.Nodes))
	}
}
