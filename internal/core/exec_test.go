package core

import (
	"math"
	"sync"
	"testing"

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
	for _, cfg := range []struct{ locs, workers int }{
		{1, 1}, {1, 4}, {2, 2}, {4, 1}, {4, 4},
	} {
		got, rep, err := plan.Evaluate(q, ExecOptions{
			Localities: cfg.locs, Workers: cfg.workers,
		})
		if err != nil {
			t.Fatalf("%dx%d: %v", cfg.locs, cfg.workers, err)
		}
		// Floating-point addition order differs between runs, so allow a
		// tiny relative slack.
		assertSame(t, got, want, 1e-9)
		if cfg.locs > 1 && rep.Runtime.ParcelsSent == 0 {
			t.Errorf("%dx%d: no parcels sent across localities", cfg.locs, cfg.workers)
		}
		if cfg.locs == 1 && rep.Runtime.ParcelsSent != 0 {
			t.Errorf("single locality sent %d parcels", rep.Runtime.ParcelsSent)
		}
	}
}

// Contexts of different shapes share a plan: each holds its own placement,
// computed once at construction, so a one-locality and a two-locality
// context may be built and run at the same time (Run used to re-place the
// plan's shared graph on every call, racing on Node.Locality and routing the
// one-locality context's edges to a locality it does not have).
func TestContextsOfDifferentShapesRunConcurrently(t *testing.T) {
	plan, q, want := testPlan(t, dag.Advanced, 2000)
	var den float64
	for i := range want {
		den = math.Max(den, math.Abs(want[i]))
	}
	var wg sync.WaitGroup
	for _, locs := range []int{1, 2} {
		wg.Add(1)
		go func(locs int) {
			defer wg.Done()
			var pe *ParallelEvaluation
			for run := 0; run < 6; run++ {
				// A fresh context every other run places the graph while the
				// other goroutine's context is running on it.
				if run%2 == 0 {
					var err error
					if pe, err = plan.NewParallelEvaluation(ExecOptions{Localities: locs, Workers: 2}); err != nil {
						t.Error(err)
						return
					}
				}
				got, rep, err := pe.Run(q)
				if err != nil {
					t.Errorf("localities %d run %d: %v", locs, run, err)
					return
				}
				if (rep.RemoteEdges > 0) != (locs > 1) {
					t.Errorf("localities %d: report carries %d remote edges", locs, rep.RemoteEdges)
				}
				var worst float64
				for i := range want {
					worst = math.Max(worst, math.Abs(got[i]-want[i])/den)
				}
				if worst > 1e-12 {
					t.Errorf("localities %d run %d: potentials differ from sequential by %.2e", locs, run, worst)
				}
			}
		}(locs)
	}
	wg.Wait()
}

func TestParallelAllMethods(t *testing.T) {
	for _, m := range []dag.Method{dag.Advanced, dag.Basic, dag.BarnesHut} {
		plan, q, want := testPlan(t, m, 1500)
		got, _, err := plan.Evaluate(q, ExecOptions{Localities: 2, Workers: 3})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		assertSame(t, got, want, 1e-9)
	}
}

// Coalescing: one parcel per fired node and destination, so parcels sent
// are never more than the remote edges of the placement.
func TestMinCommReducesTraffic(t *testing.T) {
	plan, q, _ := testPlan(t, dag.Advanced, 4000)
	_, rep, err := plan.Evaluate(q, ExecOptions{Localities: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RemoteEdges == 0 {
		t.Fatal("fixture: no remote edges on four localities")
	}
	if rep.Runtime.ParcelsSent > rep.RemoteEdges {
		t.Errorf("parcels %d exceed remote edges %d: coalescing broken",
			rep.Runtime.ParcelsSent, rep.RemoteEdges)
	}
}

func TestTraceEventsCoverAllOps(t *testing.T) {
	plan, q, _ := testPlan(t, dag.Advanced, 3000)
	tr := trace.New(2 * 2)
	_, _, err := plan.Evaluate(q, ExecOptions{Localities: 2, Workers: 2, Tracer: tr})
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
	u := trace.Analyze(events, 4, 50, start, end)
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
