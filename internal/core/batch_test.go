package core

import (
	"fmt"
	"testing"

	"repro/internal/dag"
	"repro/internal/geom"
	"repro/internal/kernel"
	"repro/internal/points"
)

// batchTestPlan builds a plan over the given distribution and kernel.
func batchTestPlan(t *testing.T, method dag.Method, d points.Distribution, k kernel.Kernel, n int) (*Plan, []float64) {
	t.Helper()
	sp := points.Generate(d, n, 1)
	tp := points.Generate(d, n, 2)
	plan, err := NewPlan(sp, tp, k, Options{Method: method, Threshold: 40})
	if err != nil {
		t.Fatal(err)
	}
	return plan, points.Charges(n, 3)
}

// assertBatchedMatchesSequential runs the plan on the parallel executor —
// M->L batched wherever the plan carries batches, the near field one task
// per target leaf — with and without gradients, and holds the potentials to
// 1e-12 of the sequential walker, which is per-edge through state.apply by
// construction. Gradients are held to 1e-9,
// the gate of TestGradientParallelMatchesSequential: the expansion gradient
// is a symmetric difference with a 1e-6 relative step, which magnifies the
// summation-order rounding of the coefficients a million times.
func assertBatchedMatchesSequential(t *testing.T, what string, plan *Plan, q []float64) {
	t.Helper()
	want, err := plan.EvaluateSequential(q)
	if err != nil {
		t.Fatalf("%s sequential: %v", what, err)
	}
	got, _, err := plan.Evaluate(q, ExecOptions{Workers: 2})
	if err != nil {
		t.Fatalf("%s batched: %v", what, err)
	}
	assertSame(t, got, want, 1e-12)

	wantPot, wantGrad, err := plan.EvaluateSequentialGrad(q)
	if err != nil {
		t.Fatalf("%s sequential gradient: %v", what, err)
	}
	gotPot, rep, err := plan.Evaluate(q, ExecOptions{Workers: 2, Gradient: true})
	if err != nil {
		t.Fatalf("%s batched gradient: %v", what, err)
	}
	assertSame(t, gotPot, wantPot, 1e-12)
	assertSameGrad(t, rep.Gradients, wantGrad, 1e-9)
}

// TestBatchedEvaluateMatchesPerEdge is the batched-execution accuracy gate:
// on both geometries and both kernels, for the method with dense M->L list-2
// traffic (Basic) and the default plane-wave method (Advanced, where only
// the near field batches), the batched evaluation must agree with the
// per-edge sequential reference to 1e-12, with and without gradients (a
// gradient run has the same near task per target leaf and the same M->L
// batches as a potential run; the task applies its chunks through S2TGrad
// where a potential run sweeps them through the tiled P2P).
func TestBatchedEvaluateMatchesPerEdge(t *testing.T) {
	p := kernel.OrderForDigits(3)
	for _, kc := range []struct {
		name string
		k    kernel.Kernel
	}{
		{"laplace", kernel.NewLaplace(p)},
		{"yukawa", kernel.NewYukawa(p, 4.0)},
	} {
		for _, d := range []struct {
			name string
			dist points.Distribution
		}{
			{"cube", points.Cube},
			{"sphere", points.Sphere},
		} {
			for _, m := range []dag.Method{dag.Basic, dag.Advanced} {
				what := fmt.Sprintf("%s/%s/%v", kc.name, d.name, m)
				plan, q := batchTestPlan(t, m, d.dist, kc.k, 1500)
				if m == dag.Basic && len(plan.batches.M2L) == 0 {
					t.Fatalf("%s: no M2L batches built", what)
				}
				if len(plan.batches.P2P) == 0 {
					t.Fatalf("%s: no P2P batches built", what)
				}
				assertBatchedMatchesSequential(t, what, plan, q)
			}
		}
	}
}

// TestBatchedMixedLatticeFallsBackPerEdge is the end-to-end mirror of
// kernel.TestM2LCacheFallsBackOffLattice: with part of the list-2 geometry
// pushed off the interaction lattice, BuildBatches must leave those edges
// unbatched, the executor must run the resulting batched/per-edge mix, and
// the potentials must match the per-edge sequential reference to 1e-12.
func TestBatchedMixedLatticeFallsBackPerEdge(t *testing.T) {
	plan, q, _ := testPlan(t, dag.Basic, 1500)

	// Nudge some source boxes with list-2 edges off the lattice. The graph
	// and the sequential reference both read the same mutated centers, so
	// this stays a pure batched-vs-per-edge comparison.
	perturbed := 0
	for i := range plan.Graph.Nodes {
		n := &plan.Graph.Nodes[i]
		if n.Kind != dag.NodeM || len(n.Out) == 0 || n.Out[0].Op != dag.OpM2L {
			continue
		}
		if perturbed%3 == 0 {
			n.Box.Center = n.Box.Center.Add(geom.Point{X: 0.3071 * n.Box.Side})
		}
		perturbed++
	}
	if perturbed < 3 {
		t.Fatalf("only %d list-2 sources found, fixture too small", perturbed)
	}
	plan.batches = dag.BuildBatches(plan.Graph, plan.Kernel)

	var batchedEdges, fallbackEdges int
	for i := range plan.Graph.Nodes {
		for _, e := range plan.Graph.Nodes[i].Out {
			if e.Op != dag.OpM2L {
				continue
			}
			if e.Batched {
				batchedEdges++
			} else {
				fallbackEdges++
			}
		}
	}
	if batchedEdges == 0 || fallbackEdges == 0 {
		t.Fatalf("want a batched/per-edge mix, got %d batched, %d fallback", batchedEdges, fallbackEdges)
	}
	assertBatchedMatchesSequential(t, "mixed lattice", plan, q)
}

// TestBatchedSteadyStateAllocsPerEdge extends the zero-allocation gate to
// the batched hot path, on the method whose list-2 traffic is dense M->L.
func TestBatchedSteadyStateAllocsPerEdge(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under the race detector")
	}
	plan, q, _ := testPlan(t, dag.Basic, 2500)
	if len(plan.batches.M2L) == 0 || len(plan.batches.P2P) == 0 {
		t.Fatal("no batches built for the Basic-method plan")
	}
	pe, err := plan.NewParallelEvaluation(ExecOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, _, err := pe.Run(q); err != nil {
			t.Fatal(err)
		}
	}
	edges := float64(plan.Graph.NumEdges())
	allocs := testing.AllocsPerRun(3, func() {
		if _, _, err := pe.Run(q); err != nil {
			t.Fatal(err)
		}
	})
	perEdge := allocs / edges
	t.Logf("allocs/run = %.0f over %.0f edges -> %.4f per edge", allocs, edges, perEdge)
	if perEdge > 0.05 {
		t.Errorf("batched steady-state allocations %.4f per edge exceed 0.05 (%.0f per run)", perEdge, allocs)
	}
}
