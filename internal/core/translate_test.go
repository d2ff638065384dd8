package core

import (
	"fmt"
	"testing"

	"repro/internal/baseline"
	"repro/internal/dag"
	"repro/internal/geom"
	"repro/internal/kernel"
	"repro/internal/points"
)

// Box centres are root-relative (package tree), so where an ensemble sits
// changes nothing of the plan: on cube, sphere and Plummer ensembles moved
// by up to 1e12, for both methods, every M->L, M->I and I->L edge is a
// member of exactly one far batch (none is left to a per-edge path), the
// sequential walker and a 2-worker ParallelEvaluation complete (an
// off-lattice translation panics) and agree to 1e-12, and the potentials
// meet the 3-digit gate against direct summation on the moved points.
func TestTranslatedEnsembleStaysOnTheLattice(t *testing.T) {
	if raceEnabled {
		t.Skip("sequential accuracy gate: ~10x slower under race")
	}
	const n = 2000
	for _, distr := range []points.Distribution{points.Cube, points.Sphere, points.Plummer} {
		sp0 := points.Generate(distr, n, 81)
		tp0 := points.Generate(distr, n, 82)
		q := points.Charges(n, 83)
		for _, m := range []dag.Method{dag.Basic, dag.Advanced} {
			for _, shift := range []float64{0, 1e6, 1e9, 1e12} {
				what := fmt.Sprintf("%v/%v at %g", distr, m, shift)
				d := geom.Point{X: shift, Y: -shift / 2, Z: shift / 4}
				sp, tp := affine(sp0, 1, d), affine(tp0, 1, d)
				k := kernel.NewLaplace(kernel.OrderForDigits(3))
				plan, err := NewPlan(sp, tp, k, Options{Method: m, Threshold: 30})
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				requireEveryFarEdgeBatchedOnce(t, what, plan)
				seq, err := plan.EvaluateSequential(q)
				if err != nil {
					t.Fatalf("%s sequential: %v", what, err)
				}
				par, _, err := plan.Evaluate(q, ExecOptions{Workers: 2})
				if err != nil {
					t.Fatalf("%s parallel: %v", what, err)
				}
				assertSame(t, par, seq, 1e-12)
				if e := relL2(seq, baseline.Direct(k, sp, q, tp, 2), nil); !(e <= 1e-3) {
					t.Errorf("%s: rel L2 %.2e against direct summation > 1e-3", what, e)
				} else {
					t.Logf("%s: depth %d, rel L2 %.2e", what, plan.MaxLevel(), e)
				}
			}
		}
	}
}

// requireEveryFarEdgeBatchedOnce fails unless every M->L, M->I and I->L edge
// of the plan's graph is a member of exactly one far batch.
func requireEveryFarEdgeBatchedOnce(t *testing.T, what string, plan *Plan) {
	t.Helper()
	member := map[dag.BatchEdge]int{}
	for _, fb := range plan.batches.Far {
		for _, be := range fb.Edges {
			member[be]++
		}
	}
	far, lost := 0, 0
	for i := range plan.Graph.Nodes {
		for j, e := range plan.Graph.Nodes[i].Out {
			switch e.Op {
			case dag.OpM2L, dag.OpM2I, dag.OpI2L:
				far++
				if member[dag.BatchEdge{From: int32(i), Out: int32(j), To: e.To}] != 1 {
					lost++
				}
			}
		}
	}
	if far == 0 || lost != 0 || len(member) != far {
		t.Errorf("%s: %d of %d far edges are not in exactly one far batch (%d batch members)", what, lost, far, len(member))
	}
}
