package core

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dag"
	"repro/internal/geom"
	"repro/internal/kernel"
	"repro/internal/points"
)

// wedgedKernel blocks its first S->M projection until released: an operator
// stuck on something outside the runtime's control.
type wedgedKernel struct {
	kernel.Kernel
	wedged  atomic.Bool
	release chan struct{}
}

func (k *wedgedKernel) S2M(c geom.Point, spts []geom.Point, q []float64, out []complex128) {
	if k.wedged.CompareAndSwap(false, true) {
		<-k.release
	}
	k.Kernel.S2M(c, spts, q, out)
}

// TestWatchdogDiagnosesStall: a run that is live but stuck — one task
// wedged, everything downstream of it starved — must be aborted by the
// watchdog with a diagnostic listing the unsatisfied LCOs.
func TestWatchdogDiagnosesStall(t *testing.T) {
	const n = 1000
	k := &wedgedKernel{Kernel: kernel.NewLaplace(6), release: make(chan struct{})}
	plan, err := NewPlan(points.Generate(points.Cube, n, 1), points.Generate(points.Cube, n, 2),
		k, Options{Method: dag.Advanced, Threshold: 40})
	if err != nil {
		t.Fatal(err)
	}
	q := points.Charges(n, 3)
	// Run cannot return before its wedged worker does; let it go well after
	// the watchdog has had its window.
	defer time.AfterFunc(2*time.Second, func() { close(k.release) }).Stop()
	start := time.Now()
	_, _, err = plan.Evaluate(q, ExecOptions{
		Localities: 2, Workers: 1, Seed: 3,
		StallWindow: 300 * time.Millisecond,
	})
	if err == nil {
		t.Fatal("stalled evaluation reported success")
	}
	if time.Since(start) > 30*time.Second {
		t.Fatalf("watchdog took %s to fire", time.Since(start))
	}
	msg := err.Error()
	if !strings.Contains(msg, "stalled") {
		t.Fatalf("error does not say stalled: %v", err)
	}
	if !strings.Contains(msg, "unsatisfied LCO") || !strings.Contains(msg, "inputs arrived") {
		t.Errorf("diagnostic does not list unsatisfied LCOs: %v", err)
	}
	if !strings.Contains(msg, "on rank") {
		t.Errorf("diagnostic does not name owner ranks: %v", err)
	}
}

// TestWatchdogQuietOnHealthyRun: the watchdog must not fire on a run that
// completes normally.
func TestWatchdogQuietOnHealthyRun(t *testing.T) {
	plan, q, want := testPlan(t, dag.Advanced, 1500)
	got, _, err := plan.Evaluate(q, ExecOptions{
		Localities: 2, Workers: 2, StallWindow: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	assertSame(t, got, want, 1e-9)
}
