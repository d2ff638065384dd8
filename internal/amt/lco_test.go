package amt

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestLCORejectsOverflowInputs: inputs past `needed` must not run their
// reduction, must not re-trigger, and must be counted.
func TestLCORejectsOverflowInputs(t *testing.T) {
	rt := New(Config{Localities: 1, Workers: 2})
	var sum atomic.Int64
	var fired atomic.Int64
	var rejected atomic.Int64
	lco := NewLCO(rt.Locality(0), 3)
	rt.Run(func() {
		loc := rt.Locality(0)
		lco.Register(func(w *Worker) { fired.Add(1) })
		for i := 0; i < 8; i++ {
			loc.Spawn(func(w *Worker) {
				if !lco.Input(func() { sum.Add(1) }) {
					rejected.Add(1)
				}
			})
		}
	})
	if fired.Load() != 1 {
		t.Fatalf("LCO fired %d times, want 1", fired.Load())
	}
	if sum.Load() != 3 {
		t.Errorf("reduction ran %d times, want exactly needed=3", sum.Load())
	}
	if rejected.Load() != 5 {
		t.Errorf("%d inputs rejected, want 5", rejected.Load())
	}
	if got, want := lco.Arrived(), 3; got != want {
		t.Errorf("Arrived() = %d, want %d", got, want)
	}
	if got, want := lco.Needed(), 3; got != want {
		t.Errorf("Needed() = %d, want %d", got, want)
	}
	if got, want := lco.Overflow(), 5; got != want {
		t.Errorf("Overflow() = %d, want %d", got, want)
	}
}

// TestLCOAccessorsBeforeTrigger: Arrived tracks accepted inputs while the
// LCO is still waiting.
func TestLCOAccessorsBeforeTrigger(t *testing.T) {
	rt := New(Config{Localities: 1, Workers: 1})
	lco := NewLCO(rt.Locality(0), 5)
	rt.Run(func() {
		rt.Locality(0).Spawn(func(w *Worker) {
			lco.Input(nil)
			lco.Input(nil)
		})
	})
	if lco.Arrived() != 2 || lco.Triggered() {
		t.Fatalf("arrived=%d triggered=%v, want 2/false", lco.Arrived(), lco.Triggered())
	}
	if lco.Overflow() != 0 {
		t.Fatalf("overflow=%d before saturation", lco.Overflow())
	}
}

// TestLCOZeroInputTriggersImmediately: an LCO expecting nothing is born
// triggered, so registrations run and stray inputs are rejected.
func TestLCOZeroInputTriggersImmediately(t *testing.T) {
	rt := New(Config{Localities: 1, Workers: 1})
	var ran atomic.Bool
	lco := NewLCO(rt.Locality(0), 0)
	rt.Run(func() {
		if !lco.Triggered() {
			t.Error("zero-input LCO not triggered at creation")
		}
		lco.Register(func(w *Worker) { ran.Store(true) })
		if lco.Input(nil) {
			t.Error("input accepted by a zero-input LCO")
		}
	})
	if !ran.Load() {
		t.Fatal("continuation did not run")
	}
}

// TestLCORegisterInputRaceSpawnsOnce is the regression test for late
// registration racing the trigger: every continuation registered
// concurrently with the final inputs must run exactly once — never zero
// times (lost registration) and never twice (spawned both by the trigger
// sweep and the late-registration path). Run under -race via `make race`.
func TestLCORegisterInputRaceSpawnsOnce(t *testing.T) {
	const (
		trials = 50
		conts  = 16
		inputs = 8
	)
	for trial := 0; trial < trials; trial++ {
		rt := New(Config{Localities: 1, Workers: 4, Seed: int64(trial)})
		var runs [conts]atomic.Int64
		lco := NewLCO(rt.Locality(0), inputs)
		var start, done sync.WaitGroup
		start.Add(1)
		done.Add(conts + inputs)
		rt.Run(func() {
			// One task blocks a worker until every Register/Input has
			// landed, holding the runtime open; its pending unit guarantees
			// Run cannot drain before the raced spawns are accounted.
			rt.Locality(0).Spawn(func(w *Worker) {
				start.Done()
				done.Wait()
			})
			// Raw goroutines (not tasks) maximize the Register/Input
			// interleavings; the spawned continuations still run on the
			// runtime's remaining workers.
			for i := 0; i < conts; i++ {
				i := i
				go func() {
					defer done.Done()
					start.Wait()
					lco.Register(func(w *Worker) { runs[i].Add(1) })
				}()
			}
			for i := 0; i < inputs; i++ {
				go func() {
					defer done.Done()
					start.Wait()
					lco.Input(nil)
				}()
			}
		})
		for i := 0; i < conts; i++ {
			if n := runs[i].Load(); n != 1 {
				t.Fatalf("trial %d: continuation %d ran %d times, want exactly 1", trial, i, n)
			}
		}
	}
}

// TestLCOReset: Reset re-arms a triggered LCO for crash-recovery rebuild —
// fresh input count, cleared continuations, optional re-homing — and the
// re-armed LCO fires again after exactly the new number of inputs.
func TestLCOReset(t *testing.T) {
	rt := New(Config{Localities: 2, Workers: 1})
	lco := NewLCO(rt.Locality(0), 2)
	var fired atomic.Int64
	firedOn := make(chan int, 4)
	rt.Run(func() {
		loc := rt.Locality(0)
		lco.Register(func(w *Worker) { fired.Add(1); firedOn <- w.Rank() })
		loc.Spawn(func(w *Worker) {
			lco.Input(nil)
			lco.Input(nil)
		})
	})
	if fired.Load() != 1 {
		t.Fatalf("LCO fired %d times before reset, want 1", fired.Load())
	}

	// Re-arm with one more input than before, homed on the other locality.
	lco.Reset(rt.Locality(1), 3)
	if lco.Triggered() || lco.Arrived() != 0 || lco.Needed() != 3 || lco.Overflow() != 0 {
		t.Fatalf("reset LCO state: triggered=%v arrived=%d needed=%d overflow=%d",
			lco.Triggered(), lco.Arrived(), lco.Needed(), lco.Overflow())
	}
	if lco.Home() != rt.Locality(1) {
		t.Fatal("reset did not re-home the LCO")
	}

	rt2 := New(Config{Localities: 2, Workers: 1})
	// The LCO's home locality belongs to the finished runtime; re-home it
	// onto the fresh one (recovery re-homes onto live localities the same
	// way).
	lco.Reset(rt2.Locality(1), 3)
	rt2.Run(func() {
		lco.Register(func(w *Worker) { fired.Add(1); firedOn <- w.Rank() })
		rt2.Locality(0).Spawn(func(w *Worker) {
			lco.Input(nil)
			lco.Input(nil)
			lco.Input(nil)
			lco.Input(nil) // overflow: must not double-fire
		})
	})
	if fired.Load() != 2 {
		t.Fatalf("LCO fired %d times total, want 2", fired.Load())
	}
	if lco.Overflow() != 1 {
		t.Errorf("overflow = %d, want 1", lco.Overflow())
	}
	close(firedOn)
	ranks := []int{}
	for r := range firedOn {
		ranks = append(ranks, r)
	}
	if len(ranks) != 2 || ranks[0] != 0 || ranks[1] != 1 {
		t.Errorf("continuations ran on ranks %v, want [0 1] (pre/post re-home)", ranks)
	}

	// Reset to zero inputs leaves the LCO triggered, matching NewLCO.
	lco.Reset(nil, 0)
	if !lco.Triggered() {
		t.Error("reset to zero inputs should leave the LCO triggered")
	}
}
