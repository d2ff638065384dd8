package amt

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunDrainsAllTasks(t *testing.T) {
	rt := New(Config{Workers: 3})
	var count atomic.Int64
	stats := rt.Run(func() {
		for i := 0; i < 200; i++ {
			rt.Spawn(func(w *Worker) { count.Add(1) })
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
	rt := New(Config{Workers: 4})
	var count atomic.Int64
	rt.Run(func() {
		rt.Spawn(func(w *Worker) {
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

// A runtime hosts one locality: asking New for more is refused with a panic
// — more localities are the ranks of a Cluster.
func TestOneLocalityPerRuntime(t *testing.T) {
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		f()
	}
	mustPanic("New with 2 localities", func() { New(Config{Localities: 2}) })
	mustPanic("New with -1 localities", func() { New(Config{Localities: -1}) })
}

// fanOut runs one job on cls: rank 0's runtime rt0 sends one parcel of size
// bytes to every other rank, each of which must handle its own and no
// other. logs[r] is rank r's event log (r >= 1). It returns rank 0's stats.
func fanOut(t *testing.T, cls []*Cluster, logs []<-chan Event, rt0 clusterRuntime, size int) Stats {
	t.Helper()
	world := len(cls)
	ws := make([]*wireRank, world)
	for r, c := range cls {
		ws[r] = newWireRank(c, world, socketDelivery)
	}
	job := startJob(cls[0], nil)
	defer job.End()
	var st0 Stats
	sent := make(chan struct{})
	go func() {
		defer close(sent)
		defer cls[0].Attach(job, ws[0].sink).Close()
		st0 = rt0.Run(func() {
			for dst := 1; dst < world; dst++ {
				payload := binary.LittleEndian.AppendUint32(make([]byte, 0, size), uint32(dst))
				cls[0].Send(rt0.Runtime, dst, 1, append(payload, make([]byte, size-len(payload))...))
			}
		})
	}()
	var wg sync.WaitGroup
	for r := 1; r < world; r++ {
		run := cls[r].Attach(await(t, logs[r], EventJob).Job, ws[r].sink)
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			defer run.Close()
			ws[r].receive(t, 1)
		}(r)
	}
	wg.Wait()
	<-sent // every acknowledgment is in, so every parcel has been counted out
	for r := 1; r < world; r++ {
		for i := range ws[r].handled {
			want := int64(0)
			if i == r {
				want = 1
			}
			if got := atomic.LoadInt64(&ws[r].handled[i]); got != want {
				t.Errorf("rank %d handled the parcel for rank %d %d times, want %d", r, i, got, want)
			}
		}
	}
	return st0
}

// watchWorkers returns the event logs of every rank but 0.
func watchWorkers(t *testing.T, cls []*Cluster) []<-chan Event {
	logs := make([]<-chan Event, len(cls))
	for r := 1; r < len(cls); r++ {
		logs[r] = watch(t, cls[r])
	}
	return logs
}

// A parcel to another locality is a frame to another rank: it runs there
// and nowhere else, and the sender's runtime counts it and its payload
// bytes.
func TestParcelCrossLocality(t *testing.T) {
	cls := startTestCluster(t, t.TempDir(), 4, lazyDetector)
	rt0 := clusterRuntime{New(Config{Workers: 2}), cls[0]}
	stats := fanOut(t, cls, watchWorkers(t, cls), rt0, 1000)
	if stats.ParcelsSent != 3 {
		t.Errorf("parcelsSent = %d, want 3", stats.ParcelsSent)
	}
	if stats.ParcelBytes != 3000 {
		t.Errorf("parcelBytes = %d, want 3000", stats.ParcelBytes)
	}
}

func TestWorkStealingSpreadsLoad(t *testing.T) {
	// One worker receives all spawns; with stealing, others must run some.
	rt := New(Config{Workers: 4})
	var perWorker [4]atomic.Int64
	rt.Run(func() {
		rt.Spawn(func(w *Worker) {
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
	a := New(Config{Workers: 2, Seed: 42})
	b := New(Config{Workers: 2, Seed: 42})
	for i := 0; i < 2; i++ {
		wa := a.workers[i]
		wb := b.workers[i]
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
	rt := New(Config{Workers: 3})
	var count atomic.Int64
	run := func(n int) Stats {
		return rt.Run(func() {
			for i := 0; i < 2*n; i++ {
				rt.Spawn(func(w *Worker) { count.Add(1) })
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

// Parcels to other ranks must keep working after a Reset (they carry no
// per-run state), and the sender counts each generation's alone.
func TestRuntimeResetParcels(t *testing.T) {
	cls := startTestCluster(t, t.TempDir(), 3, lazyDetector)
	logs := watchWorkers(t, cls)
	rt0 := clusterRuntime{New(Config{Workers: 2}), cls[0]}
	for gen := 0; gen < 2; gen++ {
		if gen > 0 {
			if err := rt0.Reset(); err != nil {
				t.Fatal(err)
			}
		}
		if stats := fanOut(t, cls, logs, rt0, 64); stats.ParcelsSent != 2 || stats.ParcelBytes != 128 {
			t.Fatalf("gen %d counts %d parcels of %d bytes, want 2 of 128", gen, stats.ParcelsSent, stats.ParcelBytes)
		}
	}
}

// Reset must refuse what is single-shot: an aborted run with pending work.
func TestRuntimeResetRefusals(t *testing.T) {
	// Undrained pending work (the signature of a stalled/aborted run whose
	// queues still hold context-less tasks) must be refused. An ordinary
	// Abort drains via sweepLeftovers, so inject the pending unit directly.
	rt := New(Config{Workers: 1})
	rt.Run(func() { rt.Spawn(func(*Worker) {}) })
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
		rt := New(Config{Workers: 2})
		var ran atomic.Int64
		const spawned = 64
		rt.Run(func() {
			rt.Spawn(func(w *Worker) {
				// Completing the runtime and spawning afterwards races the
				// worker stop path — exactly the window where parcels used
				// to be dropped from undrained inboxes.
				rt.Abort()
				for i := 0; i < spawned; i++ {
					rt.Spawn(func(*Worker) { ran.Add(1) })
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
