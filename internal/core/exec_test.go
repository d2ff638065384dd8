package core

import (
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/amt"
	"repro/internal/dag"
	"repro/internal/geom"
	"repro/internal/kernel"
	"repro/internal/points"
	"repro/internal/trace"
)

func testPlan(t *testing.T, method dag.Method, n int) (*Plan, []float64, []float64) {
	t.Helper()
	sp := points.Generate(points.Cube, n, 1)
	tp := points.Generate(points.Cube, n, 2)
	q := points.Charges(n, 3)
	k := kernel.NewLaplace(6)
	plan, err := NewPlan(sp, tp, k, Options{Method: method, Threshold: 40})
	if err != nil {
		t.Fatal(err)
	}
	want, err := plan.EvaluateSequential(q)
	if err != nil {
		t.Fatal(err)
	}
	return plan, q, want
}

func assertSame(t *testing.T, got, want []float64, tol float64) {
	t.Helper()
	var den float64
	for i := range want {
		if m := math.Abs(want[i]); m > den {
			den = m
		}
	}
	for i := range got {
		if math.Abs(got[i]-want[i])/den > tol {
			t.Fatalf("potential %d differs: %v vs %v", i, got[i], want[i])
		}
	}
}

// assertSameGrad holds gradients to a tolerance relative to the largest one.
func assertSameGrad(t *testing.T, got, want []geom.Point, tol float64) {
	t.Helper()
	var den float64
	for i := range want {
		den = math.Max(den, want[i].Norm())
	}
	for i := range want {
		if d := got[i].Sub(want[i]).Norm(); d > tol*den {
			t.Fatalf("gradient %d differs by %.2e of the largest", i, d/den)
		}
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	plan, q, want := testPlan(t, dag.Advanced, 3000)
	for _, workers := range []int{1, 2, 4} {
		got, rep, err := plan.Evaluate(q, ExecOptions{Workers: workers})
		if err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
		// Floating-point addition order differs between runs, so allow a
		// tiny relative slack.
		assertSame(t, got, want, 1e-9)
		if rep.Runtime.ParcelsSent != 0 {
			t.Errorf("%d workers: an in-process run sent %d parcels", workers, rep.Runtime.ParcelsSent)
		}
	}
}

// An in-process evaluation runs on one locality: asking it for more is an
// error that points at the knobs that do add parallelism.
func TestInProcessEvaluationRefusesLocalities(t *testing.T) {
	plan, _, _ := testPlan(t, dag.Basic, 500)
	for _, locs := range []int{2, 64, -1} {
		_, err := plan.NewParallelEvaluation(ExecOptions{Localities: locs, Workers: 2})
		if err == nil || !strings.Contains(err.Error(), "Workers") || !strings.Contains(err.Error(), "DistRun") {
			t.Errorf("%d localities: err = %v, want a refusal naming Workers and DistRun", locs, err)
		}
	}
	if _, err := plan.NewParallelEvaluation(ExecOptions{Localities: 1}); err != nil {
		t.Errorf("one locality refused: %v", err)
	}
}

// Contexts of different shapes share a plan: each holds its own placement,
// computed once at construction, so contexts of one and of two workers may
// be built and run at the same time (Run used to re-place the plan's shared
// graph on every call, racing on Node.Locality).
func TestContextsOfDifferentShapesRunConcurrently(t *testing.T) {
	plan, q, want := testPlan(t, dag.Advanced, 2000)
	var den float64
	for i := range want {
		den = math.Max(den, math.Abs(want[i]))
	}
	var wg sync.WaitGroup
	for _, workers := range []int{1, 2} {
		wg.Add(1)
		go func(workers int) {
			defer wg.Done()
			var pe *ParallelEvaluation
			for run := 0; run < 6; run++ {
				// A fresh context every other run places the graph while the
				// other goroutine's context is running on it.
				if run%2 == 0 {
					var err error
					if pe, err = plan.NewParallelEvaluation(ExecOptions{Workers: workers}); err != nil {
						t.Error(err)
						return
					}
				}
				got, _, err := pe.Run(q)
				if err != nil {
					t.Errorf("workers %d run %d: %v", workers, run, err)
					return
				}
				var worst float64
				for i := range want {
					worst = math.Max(worst, math.Abs(got[i]-want[i])/den)
				}
				if worst > 1e-12 {
					t.Errorf("workers %d run %d: potentials differ from sequential by %.2e", workers, run, worst)
				}
			}
		}(workers)
	}
	wg.Wait()
}

func TestParallelAllMethods(t *testing.T) {
	for _, m := range []dag.Method{dag.Advanced, dag.Basic, dag.BarnesHut} {
		plan, q, want := testPlan(t, m, 1500)
		got, _, err := plan.Evaluate(q, ExecOptions{Workers: 3})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		assertSame(t, got, want, 1e-9)
	}
}

func TestTraceEventsCoverAllOps(t *testing.T) {
	plan, q, _ := testPlan(t, dag.Advanced, 3000)
	tr := trace.New(2)
	_, _, err := plan.Evaluate(q, ExecOptions{Workers: 2, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	events := tr.Snapshot()
	if len(events) == 0 {
		t.Fatal("no trace events recorded")
	}
	// Every edge application records exactly one event.
	if int64(len(events)) != plan.Graph.NumEdges() {
		t.Errorf("%d events for %d edges", len(events), plan.Graph.NumEdges())
	}
	// All the advanced-FMM operator classes appear.
	seen := map[uint8]bool{}
	for _, ev := range events {
		if ev.End < ev.Start {
			t.Fatalf("event with negative duration: %+v", ev)
		}
		seen[ev.Class] = true
	}
	for _, op := range []dag.OpKind{dag.OpS2M, dag.OpM2M, dag.OpM2I, dag.OpI2I, dag.OpI2L, dag.OpL2L, dag.OpL2T, dag.OpS2T} {
		if !seen[uint8(op)] {
			t.Errorf("no events for %v", op)
		}
	}
	// Utilization analysis over the run must be positive and bounded.
	start, end := trace.Span(events)
	u := trace.Analyze(events, 2, 50, start, end)
	var maxU float64
	for _, v := range u.Total {
		if v > maxU {
			maxU = v
		}
	}
	if maxU <= 0 {
		t.Error("utilization all zero")
	}
}

// An operator's span times the operator, not the wait for its target's
// lock: with a target leaf's lock held elsewhere for 50 ms, an L->T edge
// delivered into it and the leaf's near task each record one event far
// shorter than the hold.
func TestOperatorSpanExcludesLockWait(t *testing.T) {
	const hold = 50 * time.Millisecond
	plan, q, _ := testPlan(t, dag.Advanced, 3000)
	var from *dag.Node
	out := -1
	for i := range plan.Graph.Nodes {
		if out = slices.IndexFunc(plan.Graph.Nodes[i].Out, func(e dag.Edge) bool { return e.Op == dag.OpL2T }); out >= 0 {
			from = &plan.Graph.Nodes[i]
			break
		}
	}
	if from == nil {
		t.Fatal("fixture: no L->T edge")
	}
	to := from.Out[out].To
	near := slices.IndexFunc(plan.batches.P2P, func(pb dag.P2PBatch) bool { return pb.Target == to })
	for _, c := range []struct {
		name string
		op   dag.OpKind
		run  func(ex *executor, w *amt.Worker)
	}{
		{"deliver", dag.OpL2T, func(ex *executor, w *amt.Worker) { ex.deliver(w, from, int32(out)) }},
		{"near task", dag.OpS2T, func(ex *executor, w *amt.Worker) { ex.runNear(w, int32(near)) }},
	} {
		tr := trace.New(1)
		ex := newExecutor(plan.newState(false), []int32{0}, 0, ExecOptions{Workers: 1, Tracer: tr})
		ex.st.reset(q)
		rt := amt.New(amt.Config{Workers: 1})
		ex.locks[to].Lock()
		waiting, ran := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(ran)
			rt.Run(func() {
				rt.Spawn(func(w *amt.Worker) {
					close(waiting)
					c.run(ex, w)
				})
			})
		}()
		<-waiting
		time.Sleep(hold)
		ex.locks[to].Unlock()
		<-ran
		var width time.Duration
		for _, ev := range tr.Snapshot() {
			if ev.Class == uint8(c.op) {
				width = max(width, time.Duration(ev.End-ev.Start))
			}
		}
		if width == 0 || width > hold/2 {
			t.Errorf("%s: the %v span is %v with the target's lock held for %v; want the operator alone", c.name, c.op, width, hold)
		}
	}
}
