package core

import (
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/dag"
	"repro/internal/points"
)

// The pooled-runtime path of ParallelEvaluation: the first Run builds the
// runtime, every following Run re-arms it (RuntimeReused), and the results
// stay bit-compatible with the sequential reference across generations.
func TestParallelEvaluationRuntimeReuse(t *testing.T) {
	plan, q, want := testPlan(t, dag.Advanced, 2500)
	pe, err := plan.NewParallelEvaluation(ExecOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 4; run++ {
		got, rep, err := pe.Run(q)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		assertSame(t, got, want, 1e-9)
		if run == 0 && rep.RuntimeReused {
			t.Error("first run cannot reuse a runtime")
		}
		if run > 0 && !rep.RuntimeReused {
			t.Errorf("run %d rebuilt the runtime instead of reusing it", run)
		}
		if rep.Runtime.TasksRun == 0 {
			t.Errorf("run %d reports zero tasks (stale per-generation stats?)", run)
		}
	}
	// A different charge vector on the reused runtime still evaluates
	// correctly (the payload reset is per-run, the runtime per-context).
	q2 := points.Charges(len(q), 17)
	want2, err := plan.EvaluateSequential(q2)
	if err != nil {
		t.Fatal(err)
	}
	got, rep, err := pe.Run(q2)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.RuntimeReused {
		t.Error("charge swap dropped the pooled runtime")
	}
	assertSame(t, got, want2, 1e-9)
}

// An LCO that can never be satisfied ends an in-process run with Run's
// "never triggered" error, with no option set: the node's countdown never
// reaches zero, everything else drains. The context needs no scrubbing
// afterwards: the next Run re-arms the countdowns and the same runtime
// (nothing aborted it, so nothing is left pending) and answers as the
// sequential walk does.
func TestUnsatisfiableLCOEndsTheRun(t *testing.T) {
	plan, q, want := testPlan(t, dag.Advanced, 1500)
	pe, err := plan.NewParallelEvaluation(ExecOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	g := plan.Graph
	stuck := slices.IndexFunc(g.Nodes, func(n dag.Node) bool { return n.Kind == dag.NodeL && n.In > 0 })
	if stuck < 0 {
		t.Fatal("fixture: no L node with inputs")
	}
	g.Nodes[stuck].In++
	_, _, err = pe.Run(q)
	g.Nodes[stuck].In--
	if err == nil || !strings.Contains(err.Error(), "never triggered") {
		t.Fatalf("run with an unsatisfiable LCO: err = %v, want a never-triggered error", err)
	}
	got, rep, err := pe.Run(q)
	if err != nil {
		t.Fatalf("run after the failed one: %v", err)
	}
	assertSame(t, got, want, 1e-12)
	if !rep.RuntimeReused {
		t.Error("the run after a failed one rebuilt its runtime")
	}
}

// A plan must not pin the contexts made from it: every one-shot Evaluate
// used to leave its full payload state reachable from the plan for the
// plan's lifetime. Thirty of them may grow the live heap by less than two
// states' worth.
func TestEvaluateDoesNotPinContexts(t *testing.T) {
	if raceEnabled {
		t.Skip("heap accounting is not meaningful under the race detector")
	}
	plan, q, _ := testPlan(t, dag.Advanced, 1500)
	opts := ExecOptions{Workers: 2}
	live := func() uint64 {
		runtime.GC()
		runtime.GC() // the second cycle empties the sync.Pool victim caches
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	if _, _, err := plan.Evaluate(q, opts); err != nil { // build the lazy operator tables
		t.Fatal(err)
	}
	base := live()
	keep, err := plan.NewParallelEvaluation(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := keep.Run(q); err != nil {
		t.Fatal(err)
	}
	oneState := int64(live()) - int64(base)
	runtime.KeepAlive(keep)
	if oneState < 1<<20 {
		t.Fatalf("fixture too small to measure: one live context is %d bytes", oneState)
	}
	keep = nil
	before := live()
	for i := 0; i < 30; i++ {
		if _, _, err := plan.Evaluate(q, opts); err != nil {
			t.Fatal(err)
		}
	}
	growth := int64(live()) - int64(before)
	runtime.KeepAlive(plan) // or the plan is garbage too, with whatever it pins
	t.Logf("one context %d KB, growth over 30 one-shot evaluations %d KB", oneState>>10, growth>>10)
	if growth > 2*oneState {
		t.Errorf("30 x Plan.Evaluate grew the live heap by %d bytes, more than two contexts of %d", growth, oneState)
	}
}
