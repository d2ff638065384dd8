// Package amt is the asynchronous many-tasking runtime substrate standing
// in for HPX-5 (paper, Section III). It provides:
//
//   - Localities: the units of distribution, roughly equivalent to MPI
//     processes, each with its own pool of scheduler worker threads using
//     local randomized work stealing (the paper's HPX-5 configuration).
//   - Parcels: active messages sent to a locality; delivering a parcel
//     spawns a lightweight thread there (the parcel–thread equivalence of
//     HPX-5).
//
// The runtime ships no LCO, future or global-address-space type. The one
// control object the paper's application needs — an expansion that reduces
// its inputs and triggers a continuation on the last one — is the node slot
// of the executor in internal/core (a lock, an input countdown and a
// prebuilt Task per DAG node), built directly on Spawn; a second, general
// LCO API here had no caller.
//
// A Runtime is a scheduler and nothing else: it hosts exactly one locality,
// as an HPX-5 process does. More localities are more ranks of a
// multi-process cluster, whose parcels are encoded frames on a wire and
// delivery engine that belong to the Cluster (cluster.go, delivery.go).
// DESIGN.md records why this preserves the behaviours the paper measures.
package amt

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Task is a unit of lightweight work. The worker executing the task is
// passed in so tasks can spawn further work and record trace events.
type Task func(w *Worker)

// Config configures a Runtime.
type Config struct {
	// Localities must be 0 or 1: a runtime hosts one locality, and more
	// are the ranks of a Cluster. New panics on any other value.
	Localities int
	// Workers is the number of scheduler threads of the locality (default 1).
	Workers int
	// Seed seeds the per-worker steal RNGs (deterministic scheduling noise).
	Seed int64
	// Rank is the rank of the hosted locality: 0 in-process, the cluster
	// rank on a rank of a Cluster.
	Rank int
}

// Runtime is the AMT runtime of one locality: its rank, its scheduler
// workers and the counters of a run.
type Runtime struct {
	rank    int
	workers []*Worker
	spawnRR atomic.Int64

	pending  atomic.Int64 // outstanding tasks + parcels
	done     chan struct{}
	doneOnce sync.Once
	// shuttingDown is set once Run has finished its final leftover sweep;
	// from then on stray spawns are counted instead of silently lost.
	shuttingDown atomic.Bool

	// Stats.
	parcelsSent  atomic.Int64
	parcelBytes  atomic.Int64
	tasksRun     atomic.Int64
	stealsOK     atomic.Int64
	stealsFailed atomic.Int64
	lateSpawns   atomic.Int64 // spawns rejected because the runtime has shut down
}

// Worker is one scheduler thread of a runtime.
type Worker struct {
	rt *Runtime
	// ID is the worker index within the runtime.
	ID  int
	rng *rand.Rand

	// tasks is a lock-free Chase–Lev deque (deque.go): LIFO at the bottom
	// for the owner, FIFO at the top for thieves.
	tasks wsDeque
	// in receives tasks from goroutines that do not own this worker's deque
	// (Runtime.Spawn: initial tasks, inbound frames); the owner drains it
	// into its deque before popping.
	in inbox
	// spare is the recycled drain buffer of the inbox.
	spare []Task
}

// New creates a runtime with the given configuration. Call Run to execute
// work.
func New(cfg Config) *Runtime {
	if cfg.Localities < 0 || cfg.Localities > 1 {
		panic(fmt.Sprintf("amt: %d localities asked of one runtime: it hosts one; run more as the ranks of a Cluster", cfg.Localities))
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	rt := &Runtime{rank: cfg.Rank, done: make(chan struct{})}
	for w := 0; w < cfg.Workers; w++ {
		wk := &Worker{
			rt:  rt,
			ID:  w,
			rng: rand.New(rand.NewSource(cfg.Seed + int64(w)*7919 + 1)),
		}
		wk.tasks.init()
		rt.workers = append(rt.workers, wk)
	}
	return rt
}

// Locality returns the runtime, which is its one locality; the rank is not
// checked. It remains for callers written against the multi-locality
// runtime (the benchmark module's scheduler probe); new code calls Spawn.
func (rt *Runtime) Locality(int) *Runtime { return rt }

// Rank returns the rank of the runtime the worker belongs to.
func (w *Worker) Rank() int { return w.rt.rank }

// Spawn schedules a task on the worker's own deque. It must only be called
// from code running on this worker (i.e. inside one of its tasks): the
// lock-free deque has a single owner. Work arriving from outside any
// worker goes through Runtime.Spawn.
//
//dashmm:noalloc
func (w *Worker) Spawn(t Task) {
	w.rt.pending.Add(1)
	w.tasks.push(t)
}

// Spawn schedules a task on the runtime, round-robin across its workers'
// inboxes. It is the entry point for work arriving from outside any worker
// (initial tasks, parcels off the wire). A spawn after the runtime has shut
// down is counted rather than silently lost.
//
//dashmm:noalloc
func (rt *Runtime) Spawn(t Task) {
	if rt.shuttingDown.Load() {
		rt.lateSpawns.Add(1)
		return
	}
	rt.pending.Add(1)
	i := int(rt.spawnRR.Add(1)-1) % len(rt.workers)
	rt.workers[i].in.add(t)
}

// finish marks one pending unit complete.
//
//dashmm:noalloc
func (rt *Runtime) finish() {
	if rt.pending.Add(-1) == 0 {
		rt.signalDone()
	}
}

// signalDone closes the completion channel exactly once. Kept out of finish
// so the once-closure is allocated here, on the single terminal call, rather
// than on every task completion (finish is per-task hot path).
func (rt *Runtime) signalDone() {
	rt.doneOnce.Do(func() { close(rt.done) })
}

// Run seeds the runtime by calling setup outside any worker and blocks until
// all spawned work has drained (or Abort is called). It returns basic
// execution statistics. A Runtime runs one generation at a time: after Run
// returns, call Reset to re-arm it for another Run (the long-lived-service
// path), or create a new one. Reset refuses an aborted run's runtime.
func (rt *Runtime) Run(setup func()) Stats {
	// Guard against an immediate empty run.
	rt.pending.Add(1)
	setup()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for _, w := range rt.workers {
		wg.Add(1)
		go func(w *Worker) {
			defer wg.Done()
			w.run(stop)
		}(w)
	}
	rt.finish() // release the setup guard
	<-rt.done
	close(stop)
	wg.Wait()
	// Shutdown drain: a task spawned between the pending counter reaching
	// zero and the workers returning (a late parcel copy, a straggling
	// continuation) may still sit in an inbox. Execute everything left,
	// then raise the shutdown flag so anything arriving later is counted
	// (Stats.LateSpawns) instead of silently lost.
	rt.sweepLeftovers()
	rt.shuttingDown.Store(true)
	rt.sweepLeftovers() // whatever raced the flag
	return rt.StatsNow()
}

// StatsNow assembles the current counter values. Run returns the same
// snapshot; StatsNow additionally lets callers observe a live or finished
// run (a timeout diagnosis).
func (rt *Runtime) StatsNow() Stats {
	return Stats{
		TasksRun:     rt.tasksRun.Load(),
		ParcelsSent:  rt.parcelsSent.Load(),
		ParcelBytes:  rt.parcelBytes.Load(),
		Steals:       rt.stealsOK.Load(),
		FailedSteals: rt.stealsFailed.Load(),
		LateSpawns:   rt.lateSpawns.Load(),
	}
}

// Reset re-arms the runtime for another Run, making it multi-shot: the
// completion latch is recreated, the shutdown flag cleared and the stats
// counters zeroed, while the expensive structures New builds — worker
// structs, their lock-free deques and inboxes — are kept. The caller must
// only Reset a quiesced runtime: Run has returned and no external goroutine
// is still delivering work to it.
//
// Reset refuses when pending work remains: an aborted run's queues may hold
// tasks whose context is gone.
func (rt *Runtime) Reset() error {
	if n := rt.pending.Load(); n != 0 {
		return fmt.Errorf("amt: Reset with %d pending units (aborted run?)", n)
	}
	rt.done = make(chan struct{})
	rt.doneOnce = sync.Once{}
	rt.shuttingDown.Store(false)
	rt.parcelsSent.Store(0)
	rt.parcelBytes.Store(0)
	rt.tasksRun.Store(0)
	rt.stealsOK.Store(0)
	rt.stealsFailed.Store(0)
	rt.lateSpawns.Store(0)
	return nil
}

// Hold keeps Run from draining until the matching Release: a cluster rank
// cannot infer global quiescence from its local counter.
func (rt *Runtime) Hold() { rt.pending.Add(1) }

// Release releases a Hold.
func (rt *Runtime) Release() { rt.finish() }

// Abort forces Run to return even though work is still pending. Used by a
// cluster rank whose run has failed (its context ended, the coordinator was
// lost, the rank was declared dead): the scheduler loops exit, leftovers are
// drained, and the caller reports the failure instead of waiting for peers
// that will not answer. An aborted runtime is not Reset.
func (rt *Runtime) Abort() {
	rt.signalDone()
}

// sweepLeftovers runs after every worker goroutine has exited (single
// caller, no concurrent deque owners), so Run may drain and execute any
// remaining queued tasks inline on behalf of the workers.
func (rt *Runtime) sweepLeftovers() {
	for {
		n := 0
		for _, w := range rt.workers {
			w.in.drain(w)
			for {
				t, ok := w.tasks.pop()
				if !ok {
					break
				}
				w.execute(t)
				n++
			}
		}
		if n == 0 {
			return
		}
	}
}

// run is the worker scheduling loop: inbox drained into the own deque, own
// deque (LIFO), then random victims within the locality (the paper's "local
// randomized workstealing"), then a brief backoff.
func (w *Worker) run(stop <-chan struct{}) {
	rt := w.rt
	backoff := time.Microsecond
	for {
		w.in.drain(w)
		if t, ok := w.tasks.pop(); ok {
			w.execute(t)
			backoff = time.Microsecond
			continue
		}
		if t, ok := w.trySteal(); ok {
			rt.stealsOK.Add(1)
			w.execute(t)
			backoff = time.Microsecond
			continue
		}
		rt.stealsFailed.Add(1)
		select {
		case <-stop:
			// Execute (never drop) anything that slipped into the inbox or
			// deques after the last drain, so a task spawned during shutdown
			// is not silently lost.
			w.in.drain(w)
			for {
				t, ok := w.tasks.pop()
				if !ok {
					return
				}
				w.execute(t)
			}
		default:
		}
		time.Sleep(backoff)
		if backoff < 64*time.Microsecond {
			backoff *= 2
		}
	}
}

//dashmm:noalloc
func (w *Worker) execute(t Task) {
	rt := w.rt
	rt.tasksRun.Add(1)
	t(w)
	rt.finish()
}

// trySteal attempts to steal from a random co-located victim: every
// victim's deque first, then — only if all deques are dry — one task from a
// victim inbox, so a backlog behind a busy owner cannot strand the locality.
func (w *Worker) trySteal() (Task, bool) {
	ws := w.rt.workers
	if len(ws) == 1 {
		return nil, false
	}
	start := w.rng.Intn(len(ws))
	for i := 0; i < len(ws); i++ {
		v := ws[(start+i)%len(ws)]
		if v == w {
			continue
		}
		if t, ok := v.tasks.steal(); ok {
			return t, true
		}
	}
	for i := 0; i < len(ws); i++ {
		v := ws[(start+i)%len(ws)]
		if v == w {
			continue
		}
		if t, ok := v.in.steal(); ok {
			return t, true
		}
	}
	return nil, false
}

// Stats reports what the runtime did during Run.
type Stats struct {
	TasksRun int64
	// ParcelsSent and ParcelBytes count the encoded parcels this rank handed
	// to Cluster.Send (retransmissions not included); zero in-process.
	ParcelsSent  int64
	ParcelBytes  int64
	Steals       int64
	FailedSteals int64
	// LateSpawns counts spawns rejected after shutdown.
	LateSpawns int64
	// Transport is a cluster rank's Cluster.TransportStats for the run,
	// filled in by whoever ran it there; all-zero in-process.
	Transport TransportStats
}

func (s Stats) String() string {
	out := fmt.Sprintf("tasks=%d parcels=%d parcelBytes=%d steals=%d failedSteals=%d",
		s.TasksRun, s.ParcelsSent, s.ParcelBytes, s.Steals, s.FailedSteals)
	if t := s.Transport; t.Sent+t.Retried+t.Dropped+t.Duplicated+t.DeadlineExceeded > 0 {
		out += fmt.Sprintf(" transport[sent=%d retried=%d acked=%d delivered=%d dropped=%d duplicated=%d deadline=%d]",
			t.Sent, t.Retried, t.Acked, t.Delivered, t.Dropped, t.Duplicated, t.DeadlineExceeded)
	}
	if s.LateSpawns > 0 {
		out += fmt.Sprintf(" lateSpawns=%d", s.LateSpawns)
	}
	if t := s.Transport; t.BytesOut+t.BytesIn+t.Reconnects+t.HandshakeFailures > 0 {
		out += fmt.Sprintf(" wire[msgs=%d bytesOut=%d bytesIn=%d reconnects=%d handshakeFails=%d]",
			t.WireMessages, t.BytesOut, t.BytesIn, t.Reconnects, t.HandshakeFailures)
	}
	return out
}
