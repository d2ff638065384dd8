package core

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/dag"
	"repro/internal/kernel"
	"repro/internal/points"
)

// The pooled-runtime path of ParallelEvaluation: the first Run builds the
// runtime, every following Run re-arms it (RuntimeReused), and the results
// stay bit-compatible with the sequential reference across generations.
func TestParallelEvaluationRuntimeReuse(t *testing.T) {
	plan, q, want := testPlan(t, dag.Advanced, 2500)
	pe, err := plan.NewParallelEvaluation(ExecOptions{Localities: 2, Workers: 2})
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

// A context needs no scrubbing after a failed Run: the stalled run below (the
// wedged kernel and watchdog of recover_test.go) leaves payloads, countdowns
// and a runtime with work behind, and the next Run on the same context —
// which re-arms all of it at entry — answers correctly on a fresh runtime;
// the one after pools again. (This is what Plan.Reset used to be called
// for.)
func TestPlanResetReexecutable(t *testing.T) {
	const n = 1000
	k := &wedgedKernel{Kernel: kernel.NewLaplace(6), release: make(chan struct{})}
	plan, err := NewPlan(points.Generate(points.Cube, n, 1), points.Generate(points.Cube, n, 2),
		k, Options{Method: dag.Advanced, Threshold: 40})
	if err != nil {
		t.Fatal(err)
	}
	q := points.Charges(n, 3)
	pe, err := plan.NewParallelEvaluation(ExecOptions{
		Localities: 2, Workers: 1, Seed: 3, StallWindow: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Run cannot return before its wedged worker does; let it go well after
	// the watchdog has had its window.
	defer time.AfterFunc(time.Second, func() { close(k.release) }).Stop()
	if _, _, err := pe.Run(q); err == nil || !strings.Contains(err.Error(), "stalled") {
		t.Fatalf("wedged run: err = %v, want a stall diagnosis", err)
	}
	want, err := plan.EvaluateSequential(q) // the wedge is spent
	if err != nil {
		t.Fatal(err)
	}
	got, rep, err := pe.Run(q)
	if err != nil {
		t.Fatalf("run after the failed one: %v", err)
	}
	assertSame(t, got, want, 1e-12)
	if rep.RuntimeReused {
		t.Error("the run after a failed one reused its runtime")
	}
	if got, rep, err = pe.Run(q); err != nil || !rep.RuntimeReused {
		t.Errorf("pooling did not resume: reused=%v err=%v", rep.RuntimeReused, err)
	}
	assertSame(t, got, want, 1e-12)
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
