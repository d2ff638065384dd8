package amt

import (
	"sync/atomic"
	"testing"
	"time"
)

func TestRunDrainsAllTasks(t *testing.T) {
	rt := New(Config{Localities: 2, Workers: 3})
	var count atomic.Int64
	stats := rt.Run(func() {
		for l := 0; l < 2; l++ {
			loc := rt.Locality(l)
			for i := 0; i < 100; i++ {
				loc.Spawn(func(w *Worker) { count.Add(1) })
			}
		}
	})
	if count.Load() != 200 {
		t.Fatalf("ran %d of 200 tasks", count.Load())
	}
	if stats.TasksRun != 200 {
		t.Fatalf("stats report %d tasks", stats.TasksRun)
	}
}

func TestNestedSpawns(t *testing.T) {
	rt := New(Config{Localities: 1, Workers: 4})
	var count atomic.Int64
	rt.Run(func() {
		rt.Locality(0).Spawn(func(w *Worker) {
			// A task tree of depth 10, fanout 2.
			var rec func(d int) Task
			rec = func(d int) Task {
				return func(w *Worker) {
					count.Add(1)
					if d > 0 {
						w.Spawn(rec(d - 1))
						w.Spawn(rec(d - 1))
					}
				}
			}
			rec(9)(w)
		})
	})
	if count.Load() != 1<<10-1 {
		t.Fatalf("count = %d, want %d", count.Load(), 1<<10-1)
	}
}

func TestParcelCrossLocality(t *testing.T) {
	rt := New(Config{Localities: 4, Workers: 2})
	var delivered atomic.Int64
	ranks := make(chan int, 64)
	stats := rt.Run(func() {
		rt.Locality(0).Spawn(func(w *Worker) {
			for dest := 0; dest < 4; dest++ {
				d := dest
				w.SendParcel(d, 1000, func(w2 *Worker) {
					delivered.Add(1)
					ranks <- w2.Rank()
				})
			}
		})
	})
	close(ranks)
	if delivered.Load() != 4 {
		t.Fatalf("delivered %d of 4 parcels", delivered.Load())
	}
	seen := map[int]bool{}
	for r := range ranks {
		seen[r] = true
	}
	for dest := 0; dest < 4; dest++ {
		if !seen[dest] {
			t.Errorf("parcel to locality %d executed elsewhere", dest)
		}
	}
	// Local sends are not parcels: 3 remote sends.
	if stats.ParcelsSent != 3 {
		t.Errorf("parcelsSent = %d, want 3 (local delivery is not a parcel)", stats.ParcelsSent)
	}
	if stats.ParcelBytes != 3000 {
		t.Errorf("parcelBytes = %d, want 3000", stats.ParcelBytes)
	}
}

func TestWorkStealingSpreadsLoad(t *testing.T) {
	// One worker receives all spawns; with stealing, others must run some.
	rt := New(Config{Localities: 1, Workers: 4})
	var perWorker [4]atomic.Int64
	rt.Run(func() {
		loc := rt.Locality(0)
		loc.Spawn(func(w *Worker) {
			for i := 0; i < 400; i++ {
				w.Spawn(func(w2 *Worker) {
					perWorker[w2.ID].Add(1)
					time.Sleep(100 * time.Microsecond)
				})
			}
		})
	})
	others := int64(0)
	for i := 1; i < 4; i++ {
		others += perWorker[i].Load()
	}
	if others == 0 {
		t.Error("no tasks were stolen by idle workers")
	}
}

func TestDeterministicSeeding(t *testing.T) {
	// Two runtimes with the same seed produce workers with identical RNG
	// streams (scheduling itself is still timing-dependent, but the steal
	// order source is reproducible).
	a := New(Config{Localities: 1, Workers: 2, Seed: 42})
	b := New(Config{Localities: 1, Workers: 2, Seed: 42})
	for i := 0; i < 2; i++ {
		wa := a.Locality(0).workers[i]
		wb := b.Locality(0).workers[i]
		for j := 0; j < 10; j++ {
			if wa.rng.Int63() != wb.rng.Int63() {
				t.Fatal("worker RNGs differ for equal seeds")
			}
		}
	}
}

// A Reset runtime must execute a second generation of work exactly like a
// fresh one, with per-generation stats.
func TestRuntimeResetMultiShot(t *testing.T) {
	rt := New(Config{Localities: 2, Workers: 3})
	var count atomic.Int64
	run := func(n int) Stats {
		return rt.Run(func() {
			for l := 0; l < 2; l++ {
				loc := rt.Locality(l)
				for i := 0; i < n; i++ {
					loc.Spawn(func(w *Worker) { count.Add(1) })
				}
			}
		})
	}
	if s := run(100); s.TasksRun != 200 {
		t.Fatalf("gen 0 ran %d tasks, want 200", s.TasksRun)
	}
	for gen := 1; gen <= 3; gen++ {
		if err := rt.Reset(); err != nil {
			t.Fatalf("Reset gen %d: %v", gen, err)
		}
		if s := run(50); s.TasksRun != 100 {
			t.Fatalf("gen %d ran %d tasks, want 100 (stats must restart per generation)", gen, s.TasksRun)
		}
	}
	if count.Load() != 200+3*100 {
		t.Fatalf("total tasks %d, want %d", count.Load(), 200+3*100)
	}
}

// Cross-locality parcels must keep working after a Reset (they carry no
// per-run state).
func TestRuntimeResetParcels(t *testing.T) {
	rt := New(Config{Localities: 3, Workers: 2})
	for gen := 0; gen < 2; gen++ {
		var delivered atomic.Int64
		stats := rt.Run(func() {
			rt.Locality(0).Spawn(func(w *Worker) {
				for dest := 1; dest < 3; dest++ {
					w.SendParcel(dest, 64, func(w2 *Worker) { delivered.Add(1) })
				}
			})
		})
		if delivered.Load() != 2 {
			t.Fatalf("gen %d delivered %d parcels, want 2", gen, delivered.Load())
		}
		if stats.ParcelsSent != 2 || stats.ParcelBytes != 128 {
			t.Fatalf("gen %d parcel stats %+v", gen, stats)
		}
		if gen == 0 {
			if err := rt.Reset(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// Reset must refuse what is single-shot: an aborted run with pending work.
func TestRuntimeResetRefusals(t *testing.T) {
	// Undrained pending work (the signature of a stalled/aborted run whose
	// queues still hold context-less tasks) must be refused. An ordinary
	// Abort drains via sweepLeftovers, so inject the pending unit directly.
	rt := New(Config{Localities: 1, Workers: 1})
	rt.Run(func() { rt.Locality(0).Spawn(func(*Worker) {}) })
	rt.pending.Add(1)
	if err := rt.Reset(); err == nil {
		t.Fatal("Reset accepted a runtime with pending work")
	}
	rt.pending.Add(-1)
	if err := rt.Reset(); err != nil {
		t.Fatalf("Reset refused a drained runtime: %v", err)
	}
}

// TestShutdownSpawnNeverSilentlyLost is the shutdown-drain regression test:
// a task spawned while the runtime is already completing (here: after an
// Abort) must either execute during the drain or be counted as a late
// spawn — never vanish.
func TestShutdownSpawnNeverSilentlyLost(t *testing.T) {
	for round := 0; round < 20; round++ {
		rt := New(Config{Localities: 2, Workers: 2})
		var ran atomic.Int64
		const spawned = 64
		rt.Run(func() {
			rt.Locality(0).Spawn(func(w *Worker) {
				// Completing the runtime and spawning afterwards races the
				// worker stop path — exactly the window where parcels used
				// to be dropped from undrained inboxes.
				rt.Abort()
				for i := 0; i < spawned; i++ {
					rt.Locality(i % 2).Spawn(func(*Worker) { ran.Add(1) })
				}
			})
		})
		st := rt.StatsNow()
		if got := ran.Load() + st.LateSpawns; got != spawned {
			t.Fatalf("round %d: %d executed + %d late != %d spawned",
				round, ran.Load(), st.LateSpawns, spawned)
		}
	}
}
