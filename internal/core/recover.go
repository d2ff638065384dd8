package core

import (
	"fmt"
	"strings"
	"time"
)

// The stall watchdog (ExecOptions.StallWindow): the defense against a run
// that is live but stuck — an LCO that can never be satisfied — as opposed
// to a dead rank, which the cluster's heartbeat detector and
// fabric.applyDeath (distrib.go) handle.

// runWatchdog samples execution progress and, if no task runs for a full
// window, diagnoses the stall — listing every unsatisfied LCO with its
// owner rank and arrived/needed counts — and aborts the run instead of
// hanging. The returned stop function joins the goroutine.
func (ex *executor) runWatchdog(window time.Duration) func() {
	rt := ex.rt
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		last := rt.TasksExecuted()
		lastChange := time.Now()
		tick := time.NewTicker(window / 4)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				cur := rt.TasksExecuted()
				if cur != last {
					last = cur
					lastChange = time.Now()
					continue
				}
				if time.Since(lastChange) < window {
					continue
				}
				ex.fail(ex.diagnoseStall(window))
				return
			}
		}
	}()
	return func() {
		close(stop)
		<-done
	}
}

// diagnoseStall renders the unsatisfied-LCO listing of a stalled run.
func (ex *executor) diagnoseStall(window time.Duration) error {
	const maxListed = 16
	var sb strings.Builder
	stuck := 0
	for i := range ex.remaining {
		rem := ex.remaining[i].Load()
		if rem <= 0 {
			continue
		}
		stuck++
		if stuck > maxListed {
			continue
		}
		n := &ex.g.Nodes[i]
		fmt.Fprintf(&sb, "\n  node %d (%v) on rank %d: %d/%d inputs arrived",
			i, n.Kind, ex.homes[i].Load(), n.In-rem, n.In)
	}
	if stuck > maxListed {
		fmt.Fprintf(&sb, "\n  ... and %d more", stuck-maxListed)
	}
	return fmt.Errorf("core: evaluation stalled (no task ran for %s); %d unsatisfied LCOs:%s",
		window, stuck, sb.String())
}
