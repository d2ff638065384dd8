package core

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/amt"
	"repro/internal/dag"
	"repro/internal/dag/dagtest"
	"repro/internal/geom"
	"repro/internal/kernel"
	"repro/internal/points"
	"repro/internal/tree"
)

// affine maps every point x to s*x + t.
func affine(pts []geom.Point, s float64, t geom.Point) []geom.Point {
	out := make([]geom.Point, len(pts))
	for i, p := range pts {
		out[i] = p.Scale(s).Add(t)
	}
	return out
}

func scaled(pts []geom.Point, s float64) []geom.Point { return affine(pts, s, geom.Point{}) }

// advancedPlan builds the fixture of the rebind tests and of every oracle
// and metamorphic gate on the plane-wave path: the paper's threshold, so the
// few thousand points they use keep a far field (left to the tuner they
// would be a level-1 tree of S→T edges).
func advancedPlan(t *testing.T, sp, tp []geom.Point, k kernel.Kernel) *Plan {
	t.Helper()
	return paperPlan(t, dag.Advanced, sp, tp, k)
}

// paperPlan is the same fixture on either FMM method (the metamorphic gates
// run on both).
func paperPlan(t *testing.T, m dag.Method, sp, tp []geom.Point, k kernel.Kernel) *Plan {
	t.Helper()
	return farFieldPlan(t, sp, tp, k, Options{Method: m, Threshold: tree.Threshold})
}

// farFieldPlan builds a plan that must have a far field.
func farFieldPlan(t *testing.T, sp, tp []geom.Point, k kernel.Kernel, opts Options) *Plan {
	t.Helper()
	plan, err := NewPlan(sp, tp, k, opts)
	if err != nil {
		t.Fatal(err)
	}
	dagtest.RequireFarField(t, plan.Graph)
	return plan
}

// The reproducer of the Prepare bug: plan A, then plan B over a x3-scaled
// ensemble with the same kernel value, then plan A again. Before the fix
// B's Prepare silently replaced the level tables A translates with and A's
// error against direct summation went 7.9e-6 -> 9.5e-4. Now every executor
// refuses to run A while the kernel is bound to B's cube, and A returns its
// original vector once the kernel is bound back.
func TestSharedKernelAcrossRootCubes(t *testing.T) {
	n := 4000
	if raceEnabled {
		n = 1500
	}
	sp := points.Generate(points.Cube, n, 1)
	tp := points.Generate(points.Cube, n, 2)
	q := points.Charges(n, 3)
	k := kernel.NewLaplace(kernel.OrderForDigits(3))

	planA := advancedPlan(t, sp, tp, k)
	rank1 := advancedPlan(t, sp, tp, k) // same cube: the chaos matrix's sharing, must stay legal
	want, err := planA.EvaluateSequential(q)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := planA.NewEvaluation()
	if err != nil {
		t.Fatal(err)
	}
	par, err := planA.NewParallelEvaluation(ExecOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	advancedPlan(t, scaled(sp, 3), scaled(tp, 3), k) // plan B rebinds k

	refused := func(path string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "root cube") {
			t.Errorf("%s on a rebound kernel: err = %v, want a root-cube error", path, err)
		}
	}
	_, err = planA.EvaluateSequential(q)
	refused("EvaluateSequential", err)
	_, err = seq.Run(q)
	refused("Evaluation.Run", err)
	_, _, err = par.Run(q)
	refused("ParallelEvaluation.Run", err)
	cls := distClusters(t, 2)
	var wg sync.WaitGroup
	for r, plan := range []*Plan{planA, rank1} {
		wg.Add(1)
		go func(r int, plan *Plan, cl *amt.Cluster) {
			defer wg.Done()
			_, _, err := DistRun(distCtx(t), plan, cl, q, distOpts(r))
			refused("DistRun", err)
		}(r, plan, cls[r])
	}
	wg.Wait()

	// Building another plan over A's ensembles binds the kernel back to A's
	// cube (tables rebuilt), and A is runnable again.
	advancedPlan(t, sp, tp, k)
	got, err := planA.EvaluateSequential(q)
	if err != nil {
		t.Fatal(err)
	}
	assertSame(t, got, want, 1e-12)
	if got, err = seq.Run(q); err != nil {
		t.Fatal(err)
	}
	assertSame(t, got, want, 1e-12)
	if got, _, err = par.Run(q); err != nil {
		t.Fatal(err)
	}
	assertSame(t, got, want, 1e-12)
}

// Building plans on a kernel while another plan runs on it: for the same
// root cube Prepare is a no-op and the run is undisturbed; for a different
// one the run either finished first (right answer) or reports the rebind —
// never a quietly different vector, and never a data race (`make race`).
func TestPrepareWhilePlanRuns(t *testing.T) {
	n := 3000
	if raceEnabled {
		n = 1200
	}
	sp := points.Generate(points.Sphere, n, 4)
	tp := points.Generate(points.Sphere, n, 5)
	q := points.Charges(n, 6)
	for _, k := range []kernel.Kernel{
		kernel.NewLaplace(kernel.OrderForDigits(3)),
		kernel.NewYukawa(kernel.OrderForDigits(3), 4.0),
	} {
		planA := advancedPlan(t, sp, tp, k)
		want, err := planA.EvaluateSequential(q)
		if err != nil {
			t.Fatal(err)
		}
		par, err := planA.NewParallelEvaluation(ExecOptions{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		during := func(build func()) ([]float64, error) {
			done := make(chan struct{})
			go func() {
				defer close(done)
				build()
			}()
			got, _, err := par.Run(q)
			<-done
			return got, err
		}

		got, err := during(func() {
			for i := 0; i < 3; i++ {
				advancedPlan(t, sp, tp, k)
			}
		})
		if err != nil {
			t.Fatalf("%s: same-cube plan build disturbed a running plan: %v", k.Name(), err)
		}
		assertSame(t, got, want, 1e-12)

		if k.Name() != "laplace" {
			// A mid-run rebind of a scale-variant kernel changes the wave
			// lengths under the running operators; the contract makes that
			// a caller error, not something to survive.
			continue
		}
		got, err = during(func() { advancedPlan(t, scaled(sp, 3), scaled(tp, 3), k) })
		if err == nil {
			assertSame(t, got, want, 1e-12)
		} else if !strings.Contains(err.Error(), "root cube") {
			t.Fatalf("%s: rebind during a run: %v", k.Name(), err)
		}
	}
}

// rebindOnI2I rebinds its kernel to a root cube three times the plan's on
// the first I2I after arm, as a plan built over other points on the same
// kernel value would in the middle of a run; shear, when set, moves every
// shift off the lattice instead, with the binding left alone.
type rebindOnI2I struct {
	kernel.Kernel
	side  float64
	armed atomic.Bool
	shear bool
}

func (k *rebindOnI2I) I2I(dir geom.Direction, level int, shift geom.Point, in, out []complex128) {
	if k.armed.CompareAndSwap(true, false) {
		k.Kernel.Prepare(3*k.side, 8)
	}
	if k.shear {
		shift.X += 1e-3 * k.side
	}
	k.Kernel.I2I(dir, level, shift, in, out)
}

// A rebind that lands mid-run puts the plan's I->I shifts off the new
// binding's lattice and the kernel panics; every executor turns exactly that
// panic into the run's root-cube error, deterministically here. An I->I
// off the lattice under the plan's own binding stays a panic.
func TestRebindMidRunIsAnErrorNotAPanic(t *testing.T) {
	sp := points.Generate(points.Cube, 1500, 1)
	tp := points.Generate(points.Cube, 1500, 2)
	q := points.Charges(1500, 3)
	k := &rebindOnI2I{Kernel: kernel.NewLaplace(kernel.OrderForDigits(3))}
	plan := advancedPlan(t, sp, tp, k)
	k.side = plan.Source.Domain.Side
	par, err := plan.NewParallelEvaluation(ExecOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	runs := map[string]func() error{
		"EvaluateSequential":     func() error { _, err := plan.EvaluateSequential(q); return err },
		"ParallelEvaluation.Run": func() error { _, _, err := par.Run(q); return err },
	}
	for name, run := range runs {
		k.Prepare(k.side, plan.MaxLevel()+1) // bound back to the plan's cube
		k.armed.Store(true)
		if err := run(); err == nil || !strings.Contains(err.Error(), "root cube") {
			t.Errorf("%s with a rebind mid-run: err = %v, want a root-cube error", name, err)
		}
		if k.armed.Load() {
			t.Fatalf("%s: the plan made no I->I call", name)
		}
	}

	k.Prepare(k.side, plan.MaxLevel()+1)
	k.shear = true
	defer func() {
		if v := recover(); v == nil || !strings.Contains(fmt.Sprint(v), "I2I") {
			t.Errorf("an off-lattice I2I under the plan's binding: recovered %v, want the kernel's panic", v)
		}
	}()
	plan.EvaluateSequential(q)
}
