package amt

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The delivery engine across runs and incarnations: one per rank for the
// cluster's lifetime, so what it keeps must not grow with the jobs it has
// carried, and what a dead rank's incarnation left must not reach its
// successor.

// load reports the most unacked parcels and the widest window of any pair.
func (d *delivery) load() (unacked, window int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, p := range d.peers {
		unacked, window = max(unacked, len(p.unacked)), max(window, len(p.above))
	}
	return unacked, window
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
		c.Send(rt, 1-c.Rank(), 1, 0, []byte("ping"))
		//dashmm:detached ends with the other rank's parcel or its deadline, well inside the test
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
// job: the engine's unacked entries and windows, the parked frames and the
// event log stay below constants, however many jobs have run. (The dedup set
// the window replaced grew by one entry per parcel.)
func TestEngineStateStaysBounded(t *testing.T) {
	jobs := 10_000
	if testing.Short() {
		jobs = 1_000
	}
	const maxUnacked, maxWindow, maxParked, maxLog = 1, 1, 1, 8
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
			unacked, window := c.eng.load()
			if parked, log := c.tp.parkedLen(), c.logLen(); unacked > maxUnacked || window > maxWindow || parked > maxParked || log > maxLog {
				t.Fatalf("rank %d after %d jobs: %d unacked, window %d, %d parked, %d events; want <= %d, %d, %d, %d",
					r, after, unacked, window, parked, log, maxUnacked, maxWindow, maxParked, maxLog)
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

// A re-admitted rank's pair starts over at once, in both directions: the
// survivor's first parcel to the new incarnation is sequence 1 again, and the
// new incarnation's sequence 1 is handed over although the survivor had
// handed over 1..3 from the corpse. A copy from the corpse that arrives
// while the verdict stands is neither handed over nor acknowledged.
func TestRevivedPairNumbersFromOne(t *testing.T) {
	pipe := &framePipe{}
	dead := make([]atomic.Bool, 2)
	type parcel struct {
		to  int
		seq uint64
	}
	var mu sync.Mutex
	var handed []parcel
	incarnation := func(rank int) *delivery {
		d := newDelivery(rank, pipe, fastDelivery, dead)
		d.attach(func(f Frame) {
			mu.Lock()
			handed = append(handed, parcel{rank, f.Seq})
			mu.Unlock()
		})
		return d
	}
	pipe.engs = []*delivery{incarnation(0), incarnation(1)}
	take := func() []parcel { // what was handed over since the last take
		mu.Lock()
		defer mu.Unlock()
		got := handed
		handed = nil
		slices.SortFunc(got, func(a, b parcel) int { return a.to - b.to })
		return got
	}
	exchange := func() []parcel { // one parcel each way, both acked
		take()
		rt := New(Config{})
		rt.Run(func() {
			pipe.engs[0].send(rt, 1, 1, 0, []byte("to 1"))
			pipe.engs[1].send(rt, 0, 1, 0, []byte("to 0"))
		})
		return take()
	}
	for i := uint64(1); i <= 3; i++ {
		if got := exchange(); !slices.Equal(got, []parcel{{0, i}, {1, i}}) {
			t.Fatalf("exchange %d handed over %v", i, got)
		}
	}

	dead[1].Store(true) // the verdict: the flag, then the sever
	pipe.engs[0].sever(1)
	before := pipe.messages.Load()
	if pipe.engs[0].receive(Frame{Kind: 1, Src: 1, Dst: 0, Seq: 4}) {
		t.Error("the corpse's copy is to be acknowledged")
	}
	if n := len(take()); n != 0 || pipe.messages.Load() != before {
		t.Fatalf("the corpse's copy was handed over %d times, and %d messages answered it", n, pipe.messages.Load()-before)
	}

	pipe.engs[1] = incarnation(1) // the respawn; re-admitted: the restart, then the flag
	pipe.engs[0].revive(1)
	dead[1].Store(false)
	if got := exchange(); !slices.Equal(got, []parcel{{0, 1}, {1, 1}}) {
		t.Fatalf("the first parcels between the survivor and the new incarnation were handed over as %v, want sequence 1 both ways", got)
	}
	if st := pipe.engs[0].stats(); st.Severed != 0 || st.Deduped != 0 {
		t.Errorf("survivor: %d parcels severed, %d copies deduplicated; want none", st.Severed, st.Deduped)
	}
}

// rejoin brings up a respawned incarnation of rank on the cluster rooted in
// dir and waits for its first membership.
func rejoin(t *testing.T, dir string, rank, world int, mut func(*ClusterConfig)) *Cluster {
	t.Helper()
	cfg := testClusterConfig(dir, rank, world)
	mut(&cfg)
	cfg.Rejoin = true
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
		cls[0].Send(rt, 1, 1, 0, []byte("to a rank about to be declared dead"))
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
// re-admission, its first parcels with the survivor are numbered from 1 and
// handed over both ways, and a straggler of the old incarnation — stamped
// with a run it died in — is fenced, not handed over.
func TestRespawnedIncarnationStartsClean(t *testing.T) {
	dir := t.TempDir()
	cls := startTestCluster(t, dir, 2, noRetry)
	log1 := watch(t, cls[1])
	exchange := func(job0, job1 *Job, payload string) (got0, got1 []Frame) {
		var in0, in1 frameLog
		run0, run1 := cls[0].Attach(job0, in0.sink), cls[1].Attach(job1, in1.sink)
		for r, rt := range []*Runtime{New(Config{}), New(Config{Rank: 1})} {
			rt.Run(func() {
				cls[r].Send(rt, 1-r, 1, 0, []byte(payload))
				cls[r].Send(rt, 1-r, 1, 0, []byte(payload))
			})
		}
		got0, got1 = in0.wait(t, 2), in1.wait(t, 2)
		run0.Close()
		run1.Close()
		return got0, got1
	}
	seqs := func(fs []Frame) []uint64 {
		var out []uint64
		for _, f := range fs {
			out = append(out, f.Seq)
		}
		return out
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
	straggler := Frame{Kind: 1, Src: 1, Dst: 0, Seq: 3, Epoch: uint32(uint16(old.Gen)) << 16, Payload: []byte("old")}
	cls[0].tp.fence(straggler) // late off the corpse's socket, before the new run attached
	got0, got1 := exchange(job, await(t, log1, EventJob).Job, "new")
	cls[0].tp.fence(straggler) // and after
	for r, got := range [][]Frame{got0, got1} {
		if !slices.Equal(seqs(got), []uint64{1, 2}) || slices.ContainsFunc(got, func(f Frame) bool { return string(f.Payload) != "new" }) {
			t.Errorf("rank %d was handed %q with sequence numbers %v, want the new incarnation's two parcels numbered 1 and 2", r, payloads(got), seqs(got))
		}
	}
	if st := cls[0].tp.Stats(); st.StaleFenced != 2 {
		t.Errorf("rank 0 fenced %d stragglers, want 2", st.StaleFenced)
	}
}
