package core

import (
	"math"
	"testing"

	"repro/internal/kernel"
	"repro/internal/points"
)

// The reusable evaluation context, on one worker, matches the sequential
// oracle run after run.
func TestEvaluationMatchesSequential(t *testing.T) {
	const n = 3000
	pts := points.Generate(points.Sphere, n, 21)
	k := kernel.NewLaplace(6)
	plan, err := NewPlan(pts, pts, k, Options{Threshold: 40})
	if err != nil {
		t.Fatal(err)
	}
	q := points.UnitCharges(n)
	want, err := plan.EvaluateSequential(q)
	if err != nil {
		t.Fatal(err)
	}
	pe, err := plan.NewParallelEvaluation(ExecOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 2; trial++ {
		got, _, err := pe.Run(q)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-9*math.Abs(want[i]) {
				t.Fatalf("trial %d: mismatch at %d: %v vs %v", trial, i, got[i], want[i])
			}
		}
	}
}
