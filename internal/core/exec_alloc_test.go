package core

import (
	"testing"

	"repro/internal/dag"
	"repro/internal/points"
)

// TestParallelEvaluationReuse checks the reusable parallel context: many
// charge vectors over one LCO network, each matching the sequential
// reference, with correct buffer resets in between.
func TestParallelEvaluationReuse(t *testing.T) {
	plan, q1, want1 := testPlan(t, dag.Advanced, 2000)
	pe, err := plan.NewParallelEvaluation(ExecOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	q2 := points.Charges(2000, 77)
	want2, err := plan.EvaluateSequential(q2)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 3; trial++ {
		got1, _, err := pe.Run(q1)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		assertSame(t, got1, want1, 1e-9)
		got2, _, err := pe.Run(q2)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		assertSame(t, got2, want2, 1e-9)
	}
}

// TestSteadyStateAllocsPerEdge is the ISSUE's zero-allocation acceptance
// gate: once the context is warm, a full parallel DAG evaluation must
// allocate ~nothing per evaluated edge (the fixed per-run cost — one
// single-shot runtime, its worker goroutines, and the returned potential
// vector — is amortized over every edge of the DAG).
func TestSteadyStateAllocsPerEdge(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under the race detector")
	}
	plan, q, _ := testPlan(t, dag.Advanced, 2500)
	pe, err := plan.NewParallelEvaluation(ExecOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Warm runs: grow deque rings, fill the kernel workspace free list and
	// the parcel pools, and build any lazy operator matrices.
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
		t.Errorf("steady-state allocations %.4f per edge exceed 0.05 (%.0f per run)", perEdge, allocs)
	}
}
