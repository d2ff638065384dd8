package amt

import (
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

// The delivery engine across runs and incarnations: one per rank for the
// cluster's lifetime, so what it keeps must not grow with the jobs it has
// carried, and what a dead rank's incarnation left must not reach its
// successor.

// load reports the most unacked parcels of any pair.
func (d *delivery) load() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	unacked := 0
	for _, p := range d.peers {
		unacked = max(unacked, len(p.unacked))
	}
	return unacked
}

// pingPong is one rank's side of a job of a two-rank cluster: one parcel to
// the other rank; it returns once that parcel is acked and the other's has
// been handed over, with the run detached.
func pingPong(t *testing.T, c *Cluster, job *Job) {
	arrived := make(chan struct{}, 1)
	run := c.Attach(job, func(Frame) {
		select {
		case arrived <- struct{}{}:
		default:
		}
	})
	defer run.Close()
	rt := New(Config{Rank: c.Rank()})
	rt.Run(func() {
		rt.Hold()
		c.Send(rt, 1-c.Rank(), 1, []byte("ping"))
		// It ends with the other rank's parcel or its deadline, well inside
		// the test.
		go func() {
			defer rt.Release()
			select {
			case <-arrived:
			case <-time.After(10 * time.Second):
				t.Errorf("rank %d: job %d handed over no parcel in 10s", c.Rank(), job.Gen)
			}
		}()
	})
}

// Back-to-back jobs on a standing two-rank cluster, one parcel each way per
// job: the engine's unacked entries, the parked frames and the event log stay
// below constants, however many jobs have run.
func TestEngineStateStaysBounded(t *testing.T) {
	jobs := 10_000
	if testing.Short() {
		jobs = 1_000
	}
	const maxUnacked, maxParked, maxLog = 1, 1, 8
	cls := startTestCluster(t, t.TempDir(), 2, lazyDetector)
	worker := cls[1].Subscribe() // the worker's main loop
	done := make(chan struct{})
	go func() {
		defer close(done)
		for n := 0; n < jobs; {
			ev, ok := worker.Next()
			if !ok {
				return
			}
			if ev.Kind == EventJob {
				pingPong(t, cls[1], ev.Job)
				n++
			}
		}
	}()
	defer worker.Close()
	check := func(after int) {
		t.Helper()
		for r, c := range cls {
			unacked := c.eng.load()
			if parked, log := c.tp.parkedLen(), c.logLen(); unacked > maxUnacked || parked > maxParked || log > maxLog {
				t.Fatalf("rank %d after %d jobs: %d unacked, %d parked, %d events; want <= %d, %d, %d",
					r, after, unacked, parked, log, maxUnacked, maxParked, maxLog)
			}
		}
	}
	for i := 1; i <= jobs && !t.Failed(); i++ {
		job := startJob(cls[0], nil)
		pingPong(t, cls[0], job)
		job.End()
		if i%100 == 0 {
			check(i)
		}
	}
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("the worker never finished its last job")
	}
	check(jobs)
	if st := cls[0].TransportStats(); st.Retried != 0 || st.DeadlineExceeded != 0 {
		t.Errorf("the last job retransmitted %d parcels and abandoned %d, want none", st.Retried, st.DeadlineExceeded)
	}
}

// A verdict stops a corpse's copies at the survivor: one that arrives while
// the verdict stands is neither handed over nor acknowledged. After the
// re-admission the new incarnation's parcels are handed over and acked both
// ways although its engine numbers from 1 again and the survivor's numbers
// on: the receiver keeps no sequence state to trip over.
func TestCorpseCopiesStopAtTheVerdict(t *testing.T) {
	pipe := &framePipe{}
	dead := make([]atomic.Bool, 2)
	var handed atomic.Int64
	incarnation := func(rank int) *delivery {
		d := newDelivery(rank, pipe, fastDelivery, dead)
		d.attach(func(Frame) { handed.Add(1) })
		return d
	}
	pipe.engs = []*delivery{incarnation(0), incarnation(1)}
	exchange := func() int64 { // one parcel each way, both acked
		before := handed.Load()
		rt := New(Config{})
		rt.Run(func() {
			pipe.engs[0].send(rt, 1, 1, []byte("to 1"))
			pipe.engs[1].send(rt, 0, 1, []byte("to 0"))
		})
		return handed.Load() - before
	}
	for i := 1; i <= 3; i++ {
		if got := exchange(); got != 2 {
			t.Fatalf("exchange %d handed over %d parcels, want 2", i, got)
		}
	}

	dead[1].Store(true) // the verdict: the flag, then the sever
	pipe.engs[0].sever(1)
	before, msgs := handed.Load(), pipe.messages.Load()
	if pipe.engs[0].receive(Frame{Kind: 1, Src: 1, Dst: 0, Seq: 4}) {
		t.Error("the corpse's copy is to be acknowledged")
	}
	if n := handed.Load() - before; n != 0 || pipe.messages.Load() != msgs {
		t.Fatalf("the corpse's copy was handed over %d times, and %d messages answered it", n, pipe.messages.Load()-msgs)
	}

	pipe.engs[1] = incarnation(1) // the respawn; the re-admission clears the flag
	dead[1].Store(false)
	if got := exchange(); got != 2 {
		t.Fatalf("the survivor and the new incarnation handed over %d parcels, want one each way", got)
	}
	if st := pipe.engs[0].stats(); st.Severed != 0 || st.Acked != 4 {
		t.Errorf("survivor: %d parcels severed, %d acked; want none severed and all 4 acked", st.Severed, st.Acked)
	}
}

// rejoin brings up a respawned incarnation of rank on the cluster rooted in
// dir and waits for its first membership.
func rejoin(t *testing.T, dir string, rank, world int, mut func(*ClusterConfig)) *Cluster {
	t.Helper()
	cfg := testClusterConfig(dir, rank, world)
	mut(&cfg)
	nc, err := NewCluster(cfg)
	if err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	t.Cleanup(func() { nc.Close() })
	if err := nc.Start(); err != nil {
		t.Fatalf("rejoin start: %v", err)
	}
	return nc
}

// noRetry keeps the retransmission clock out of a test: nothing is resent
// within it, so whatever settles a parcel is what the test did.
func noRetry(cfg *ClusterConfig) {
	lazyDetector(cfg)
	cfg.Delivery = DeliveryConfig{RetryBase: 20 * time.Second, Deadline: time.Minute}
}

// The cluster's verdict settles a parcel in flight to the dead rank in the
// critical section that records the death: the run holding it drains at the
// verdict, not at a retransmission timer that would find the rank dead.
func TestVerdictSettlesParcelsToTheDead(t *testing.T) {
	cls := startTestCluster(t, t.TempDir(), 2, noRetry)
	job := startJob(cls[0], nil)
	defer job.End()
	defer cls[0].Attach(job, func(Frame) {}).Close()
	cls[1].Close() // the rank dies before it acknowledges anything

	rt := New(Config{})
	var verdict time.Time
	rt.Run(func() {
		cls[0].Send(rt, 1, 1, []byte("to a rank about to be declared dead"))
		time.AfterFunc(50*time.Millisecond, func() {
			verdict = time.Now()
			cls[0].DeclareDead(1)
		})
	})
	if wait := time.Since(verdict); wait > 5*time.Second {
		t.Errorf("the run drained %v after the verdict", wait)
	}
	if st := cls[0].TransportStats(); st.Severed != 1 || st.Acked != 0 {
		t.Errorf("severed %d, acked %d; want the one parcel severed", st.Severed, st.Acked)
	}
}

// A respawned incarnation starts clean: after the verdict and the
// re-admission, its first parcels with the survivor are handed over both
// ways, and a straggler of the old incarnation — stamped with a run it died
// in — is fenced, not handed over.
func TestRespawnedIncarnationStartsClean(t *testing.T) {
	dir := t.TempDir()
	cls := startTestCluster(t, dir, 2, noRetry)
	log1 := watch(t, cls[1])
	exchange := func(job0, job1 *Job, payload string) (got0, got1 []Frame) {
		var in0, in1 frameLog
		run0, run1 := cls[0].Attach(job0, in0.sink), cls[1].Attach(job1, in1.sink)
		for r, rt := range []*Runtime{New(Config{}), New(Config{Rank: 1})} {
			rt.Run(func() {
				cls[r].Send(rt, 1-r, 1, []byte(payload))
				cls[r].Send(rt, 1-r, 1, []byte(payload))
			})
		}
		got0, got1 = in0.wait(t, 2), in1.wait(t, 2)
		run0.Close()
		run1.Close()
		return got0, got1
	}

	old := startJob(cls[0], nil)
	exchange(old, await(t, log1, EventJob).Job, "old")
	old.End()
	cls[1].Close()
	cls[0].DeclareDead(1)
	cls[1] = rejoin(t, dir, 1, 2, noRetry)
	log1 = watch(t, cls[1])

	job := startJob(cls[0], nil)
	defer job.End()
	straggler := Frame{Kind: 1, Src: 1, Dst: 0, Seq: 3, Epoch: old.Gen, Payload: []byte("old")}
	cls[0].tp.fence(straggler) // late off the corpse's socket, before the new run attached
	got0, got1 := exchange(job, await(t, log1, EventJob).Job, "new")
	cls[0].tp.fence(straggler) // and after
	for r, got := range [][]Frame{got0, got1} {
		if p := payloads(got); !slices.Equal(p, []string{"new", "new"}) {
			t.Errorf("rank %d was handed %q, want the new incarnation's two parcels", r, p)
		}
	}
	if st := cls[0].tp.Stats(); st.StaleFenced != 2 {
		t.Errorf("rank 0 fenced %d stragglers, want 2", st.StaleFenced)
	}
}
