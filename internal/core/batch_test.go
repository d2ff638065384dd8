package core

import (
	"fmt"
	"testing"

	"repro/internal/dag"
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

// farBatches counts the plan's far batches of one operator class.
func farBatches(plan *Plan, op dag.OpKind) int {
	n := 0
	for _, fb := range plan.batches.Far {
		if fb.Op == op {
			n++
		}
	}
	return n
}

// requireFarBatches fails unless the plan carries far batches of every
// dense class its method uses: M->L for Basic, M->I and I->L for Advanced.
func requireFarBatches(t *testing.T, what string, plan *Plan, m dag.Method) {
	t.Helper()
	ops := []dag.OpKind{dag.OpM2I, dag.OpI2L}
	if m == dag.Basic {
		ops = []dag.OpKind{dag.OpM2L}
	}
	for _, op := range ops {
		if farBatches(plan, op) == 0 {
			t.Fatalf("%s: no %v batches built", what, op)
		}
	}
}

// TestBatchedEvaluateMatchesPerEdge is the batched-execution accuracy gate:
// on both geometries and both kernels, for the method with dense M->L list-2
// traffic (Basic) and the default plane-wave method (Advanced, whose M->I
// and I->L batch by level), the batched evaluation must agree with the
// per-edge sequential reference to 1e-12, with and without gradients (a
// gradient run has the same near task per target leaf and the same far
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
				requireFarBatches(t, what, plan, m)
				if len(plan.batches.P2P) == 0 {
					t.Fatalf("%s: no P2P batches built", what)
				}
				assertBatchedMatchesSequential(t, what, plan, q)
			}
		}
	}
}

// TestBatchedWavesAcrossLevels is the deeper Advanced case: an adaptive
// sphere tree four levels deep, where M->I and I->L batch at three levels,
// merged (Is) and shared (It) child-level waves live at two or more, and a
// level holds more sources than one batch takes. Laplace keeps one rule at
// every level; Yukawa's rule, and with it the wave the batch scratch must
// hold, changes length from level to level. Both must match the per-edge
// walker to 1e-12, with and without gradients.
func TestBatchedWavesAcrossLevels(t *testing.T) {
	p := kernel.OrderForDigits(3)
	for _, kc := range []struct {
		k kernel.Kernel
		// varies: the wave length changes between batched levels.
		varies bool
	}{
		{kernel.NewLaplace(p), false},
		{kernel.NewYukawa(p, 30.0), true},
	} {
		k, what := kc.k, kc.k.Name()
		sp := points.Generate(points.Sphere, 6000, 1)
		tp := points.Generate(points.Sphere, 6000, 2)
		plan, err := NewPlan(sp, tp, k, Options{Method: dag.Advanced, Threshold: 20})
		if err != nil {
			t.Fatal(err)
		}
		levels := map[dag.OpKind]map[int]int{dag.OpM2I: {}, dag.OpI2L: {}}
		for _, fb := range plan.batches.Far {
			if fb.Op != dag.OpM2I && fb.Op != dag.OpI2L {
				continue
			}
			if len(fb.Edges) > dag.WaveBatchSources {
				t.Errorf("%s: %v batch of %d sources", what, fb.Op, len(fb.Edges))
			}
			levels[fb.Op][fb.Level]++
		}
		for op, byLevel := range levels {
			if len(byLevel) < 2 {
				t.Fatalf("%s: %v batches at levels %v, want two or more", what, op, byLevel)
			}
		}
		merged := map[dag.NodeKind]map[int]bool{dag.NodeIs: {}, dag.NodeIt: {}}
		for i := range plan.Graph.Nodes {
			n := &plan.Graph.Nodes[i]
			if n.MergedMask != 0 {
				merged[n.Kind][n.Level()] = true
			}
		}
		for kind, lv := range merged {
			if len(lv) < 2 {
				t.Fatalf("%s: %v nodes with child-level waves at levels %v, want two or more", what, kind, lv)
			}
		}
		sizes := map[int]bool{}
		for l := range levels[dag.OpM2I] {
			sizes[k.ISize(l)] = true
		}
		if kc.varies && len(sizes) < 2 {
			t.Errorf("%s: one wave length %v over the batched levels, want the rule to change", what, sizes)
		}
		assertBatchedMatchesSequential(t, what, plan, points.Charges(6000, 3))
	}
}

// TestBatchedSteadyStateAllocsPerEdge extends the zero-allocation gate to
// the batched hot path, on both methods: Basic, whose list-2 traffic is
// dense M->L, and Advanced, whose M->I and I->L batch by level.
func TestBatchedSteadyStateAllocsPerEdge(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under the race detector")
	}
	for _, m := range []dag.Method{dag.Basic, dag.Advanced} {
		plan, q, _ := testPlan(t, m, 2500)
		requireFarBatches(t, m.String(), plan, m)
		if len(plan.batches.P2P) == 0 {
			t.Fatalf("%v: no P2P batches built", m)
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
		t.Logf("%v: allocs/run = %.0f over %.0f edges -> %.4f per edge", m, allocs, edges, perEdge)
		if perEdge > 0.05 {
			t.Errorf("%v: batched steady-state allocations %.4f per edge exceed 0.05 (%.0f per run)", m, perEdge, allocs)
		}
	}
}
