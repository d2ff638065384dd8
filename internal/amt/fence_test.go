package amt

import (
	"context"
	"encoding/binary"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The job, the one attach and the three-way generation fence: a frame that
// reaches a rank before its run waits for it.

// wireRank is one rank's side of a run on a test cluster: a runtime whose
// parcels go through the cluster's delivery engine, and the run's wire
// handler, sink, which counts how often each indexed parcel was handled and
// records the order they were handed over in.
type wireRank struct {
	c        *Cluster
	rt       clusterRuntime
	handled  []int64      // per parcel index; atomic
	distinct atomic.Int64 // parcel indexes handled at least once
	mu       sync.Mutex
	sunk     []uint32 // parcel indexes in the order the sink was handed them
}

// clusterRuntime is a rank's runtime whose stats carry the transport of the
// run attached on its cluster, as core.DistRun reports them.
type clusterRuntime struct {
	*Runtime
	c *Cluster
}

func (r clusterRuntime) Run(setup func()) Stats {
	s := r.Runtime.Run(setup)
	s.Transport = r.c.TransportStats()
	return s
}

func (r clusterRuntime) StatsNow() Stats {
	s := r.Runtime.StatsNow()
	s.Transport = r.c.TransportStats()
	return s
}

// newWireRank sets up one rank's side of a run, re-clocking the cluster's
// delivery engine to dcfg (between runs, when nothing is in flight).
func newWireRank(c *Cluster, parcels int, dcfg DeliveryConfig) *wireRank {
	c.eng.mu.Lock()
	c.eng.cfg = dcfg.withDefaults()
	c.eng.mu.Unlock()
	rt := New(Config{Rank: c.Rank(), Workers: 1, Seed: int64(c.Rank()) + 1})
	return &wireRank{c: c, rt: clusterRuntime{rt, c}, handled: make([]int64, parcels)}
}

func (w *wireRank) sink(f Frame) {
	i := binary.LittleEndian.Uint32(f.Payload)
	w.mu.Lock()
	w.sunk = append(w.sunk, i)
	w.mu.Unlock()
	if atomic.AddInt64(&w.handled[i], 1) == 1 {
		w.distinct.Add(1)
	}
}

func (w *wireRank) send(dst int, idx ...int) {
	for _, i := range idx {
		w.c.Send(w.rt.Runtime, dst, 1, 0, binary.LittleEndian.AppendUint32(nil, uint32(i)))
	}
}

// receive runs the rank until it has handled want distinct parcels.
func (w *wireRank) receive(t *testing.T, want int) Stats {
	t.Helper()
	return w.rt.Run(func() {
		w.rt.Hold()
		//dashmm:detached ends with the parcel count or its deadline, well inside the test
		go func() {
			defer w.rt.Release()
			for deadline := time.Now().Add(20 * time.Second); w.distinct.Load() < int64(want); time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Errorf("%d of %d parcels handled in 20s", w.distinct.Load(), want)
					return
				}
			}
		}()
	})
}

// socketDelivery is a retry clock of the scale a socket mesh runs on by
// default (200 ms), with headroom for a loaded test box.
var socketDelivery = DeliveryConfig{RetryBase: 500 * time.Millisecond, RetryMax: 2 * time.Second, Deadline: 30 * time.Second}

// (a) Rank 0 starts a job, attaches and sends at once; rank 1 is still
// busy — building its plan, in the daemon — and attaches 50 ms after it read
// the job. The frames wait for it at the fence: all arrive once, in order,
// well inside one retransmission interval, and nothing was fenced or sent
// twice. (They used to be dropped as "not this rank's generation" and came
// back a RetryBase later.)
func TestFrameBeforeItsRunWaitsForIt(t *testing.T) {
	cls := startTestCluster(t, t.TempDir(), 2, lazyDetector)
	log1 := watch(t, cls[1])
	w0, w1 := newWireRank(cls[0], 3, socketDelivery), newWireRank(cls[1], 3, socketDelivery)

	job := startJob(cls[0], nil)
	defer job.End()
	start := time.Now()
	var st0 Stats
	sent := make(chan struct{})
	go func() {
		defer close(sent)
		defer cls[0].Attach(job, w0.sink).Close()
		st0 = w0.rt.Run(func() { w0.send(1, 0, 1, 2) })
	}()
	ev := await(t, log1, EventJob)
	time.Sleep(50 * time.Millisecond)
	awaitParked(t, cls[1], 3)
	run1 := cls[1].Attach(ev.Job, w1.sink)
	st1 := w1.receive(t, 3)
	run1.Close()
	<-sent
	if d := time.Since(start); d >= socketDelivery.RetryBase {
		t.Errorf("the frames took %v, a retransmission interval (%v) or more", d, socketDelivery.RetryBase)
	}
	assertExactlyOnce(t, w1.handled)
	if !slices.Equal(w1.sunk, []uint32{0, 1, 2}) {
		t.Errorf("the run was handed parcels %v, want them in arrival order", w1.sunk)
	}
	for r, st := range []Stats{st0, st1} {
		if tr := st.Transport; tr.StaleFenced != 0 || tr.Retried != 0 || tr.Dropped != 0 {
			t.Errorf("rank %d: fenced=%d retried=%d dropped=%d, want none of it", r, tr.StaleFenced, tr.Retried, tr.Dropped)
		}
	}
}

// rawSend puts frames on the wire, numbered from 1, without the sender's
// delivery engine: whatever the receiver does with them is final.
func rawSend(c *Cluster, dst int, payloads ...string) {
	for i, p := range payloads {
		c.Transport().Send(Message{Src: c.Rank(), Dst: dst, Seq: uint64(i + 1), Kind: 7, Payload: []byte(p)})
	}
}

func payloads(fs []Frame) []string {
	var out []string
	for _, f := range fs {
		out = append(out, string(f.Payload))
	}
	return out
}

// awaitParked waits until at least n frames wait at the rank's fence.
func awaitParked(t *testing.T, c *Cluster, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); c.tp.parkedLen() < n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("rank %d holds %d parked frames after 10s, want %d", c.Rank(), c.tp.parkedLen(), n)
		}
	}
}

// (b) Two generations pending: rank 0 ran job g to its end without rank 1
// and is into g+1. Rank 1's run of g is handed the frames of g and none of
// g+1; its run of g+1 is handed all of those.
func TestParkedFramesWaitForTheirOwnRun(t *testing.T) {
	cls := startTestCluster(t, t.TempDir(), 2, lazyDetector)
	log1 := watch(t, cls[1])
	nowhere := func(Frame) {}

	first := startJob(cls[0], nil)
	run := cls[0].Attach(first, nowhere)
	rawSend(cls[0], 1, "g/0", "g/1")
	cls[0].Shutdown()
	run.Close()
	first.End()
	second := startJob(cls[0], nil)
	defer second.End()
	defer cls[0].Attach(second, nowhere).Close()
	rawSend(cls[0], 1, "h/0", "h/1", "h/2")
	awaitParked(t, cls[1], 5)

	var got frameLog
	run = cls[1].Attach(await(t, log1, EventJob).Job, got.sink)
	if p := payloads(got.wait(t, 2)); !slices.Equal(p, []string{"g/0", "g/1"}) || cls[1].tp.parkedLen() != 3 {
		t.Fatalf("the run of generation %d was handed %q and %d frames stay parked; want its own two and the next run's three", first.Gen, p, cls[1].tp.parkedLen())
	}
	run.Close()
	var next frameLog
	defer cls[1].Attach(await(t, log1, EventJob).Job, next.sink).Close()
	if p := payloads(next.wait(t, 3)); !slices.Equal(p, []string{"h/0", "h/1", "h/2"}) || cls[1].tp.parkedLen() != 0 {
		t.Fatalf("the run of generation %d was handed %q, %d frames stay parked; want its three and none", second.Gen, p, cls[1].tp.parkedLen())
	}
	if n := got.len(); n != 2 {
		t.Errorf("the finished run's handler was handed %d frames in the end, want its 2", n)
	}
	if st := cls[1].Transport().Stats(); st.StaleFenced != 0 || st.Dropped != 0 {
		t.Errorf("rank 1 fenced %d frames and dropped %d, want none", st.StaleFenced, st.Dropped)
	}
}

// (d) The park buffer is bounded: what does not fit is dropped and counted
// like any other wire loss, the sender's delivery engine repairs it, and
// every parcel is still handed over.
func TestParkOverflowIsWireLoss(t *testing.T) {
	const extra = 40
	cls := startTestCluster(t, t.TempDir(), 2, lazyDetector)
	log1 := watch(t, cls[1])
	dcfg := DeliveryConfig{RetryBase: 300 * time.Millisecond, RetryMax: time.Second, Deadline: 60 * time.Second}
	w0, w1 := newWireRank(cls[0], peerQueueMax+extra, dcfg), newWireRank(cls[1], peerQueueMax+extra, dcfg)

	job := startJob(cls[0], nil)
	defer job.End()
	var st0 Stats
	held, sent := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sent)
		defer cls[0].Attach(job, w0.sink).Close()
		st0 = w0.rt.Run(func() { w0.rt.Hold(); close(held) })
	}()
	<-held
	for i := 0; i < peerQueueMax; i++ {
		w0.send(1, i)
		if i%1024 == 1023 {
			awaitParked(t, cls[1], i+1) // the outbound queue has the same bound: stay below it
		}
	}
	for i := 0; i < extra; i++ {
		w0.send(1, peerQueueMax+i)
	}
	w0.rt.Release()
	for deadline := time.Now().Add(10 * time.Second); cls[1].Transport().Stats().Dropped < extra; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("rank 1 dropped %d frames at its full park buffer, want %d", cls[1].Transport().Stats().Dropped, extra)
		}
	}
	if n := cls[1].tp.parkedLen(); n != peerQueueMax {
		t.Fatalf("%d frames parked, the bound is %d", n, peerQueueMax)
	}
	run1 := cls[1].Attach(await(t, log1, EventJob).Job, w1.sink)
	w1.receive(t, peerQueueMax+extra)
	run1.Close()
	<-sent
	assertAtLeastOnce(t, w1.handled)
	if st0.Transport.Retried < extra {
		t.Errorf("rank 0 retransmitted %d parcels, want at least the %d dropped", st0.Transport.Retried, extra)
	}
	if n := cls[1].tp.parkedLen(); n != 0 {
		t.Errorf("%d frames still parked behind the run they belong to", n)
	}
}

// (e) A stamp is the generation's low 16 bits and wraps; newer and older
// are told apart across the wrap.
func TestGenerationFenceAcrossStampWrap(t *testing.T) {
	cls := startTestCluster(t, t.TempDir(), 2, lazyDetector)
	log1 := watch(t, cls[1])
	nowhere := func(Frame) {}
	cls[0].mu.Lock()
	cls[0].genCount = 1<<16 - 3
	cls[0].mu.Unlock()
	// A rank follows the jobs: bring rank 1 to within half a wrap of them.
	startJob(cls[0], nil).End()
	cls[1].Attach(await(t, log1, EventJob).Job, nowhere).Close()

	last := startJob(cls[0], nil) // stamp 0xffff
	last.End()
	wrapped := startJob(cls[0], nil) // stamp 0
	defer wrapped.End()
	if last.Gen != 1<<16-1 || wrapped.Gen != 1<<16 {
		t.Fatalf("generations %d and %d, want 65535 and 65536", last.Gen, wrapped.Gen)
	}
	cls[0].Attach(last, nowhere).Close()
	rawSend(cls[0], 1, "before the wrap")
	cls[0].Attach(wrapped, nowhere).Close()
	rawSend(cls[0], 1, "after the wrap")
	awaitParked(t, cls[1], 2)

	// Stamp 0 is newer than 0xffff: it stays parked while its predecessor runs.
	var got frameLog
	cls[1].Attach(await(t, log1, EventJob).Job, got.sink).Close()
	if p := payloads(got.wait(t, 1)); p[0] != "before the wrap" || cls[1].tp.parkedLen() != 1 {
		t.Fatalf("the run of generation 65535 was handed %q and %d frames stay parked; want its own and the next run's", p, cls[1].tp.parkedLen())
	}
	defer cls[1].Attach(await(t, log1, EventJob).Job, got.sink).Close()
	if p := payloads(got.wait(t, 2)); p[1] != "after the wrap" {
		t.Fatalf("the run of generation 65536 was handed %q", p[1:])
	}
	// Stamp 0xffff is older than 0: a straggler, fenced.
	cls[0].Attach(last, nowhere).Close()
	rawSend(cls[0], 1, "straggler")
	for deadline := time.Now().Add(10 * time.Second); cls[1].Transport().Stats().StaleFenced == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the straggler of generation 65535 was not fenced at generation 65536 (%d delivered, %d parked)", got.len(), cls[1].tp.parkedLen())
		}
	}
	if got.len() != 2 || cls[1].tp.parkedLen() != 0 {
		t.Errorf("the straggler was delivered or parked: %q, %d parked", payloads(got.wait(t, 2)), cls[1].tp.parkedLen())
	}
}

// (f) The cluster runs one job at a time: a second StartJob returns only
// after the first job ended, and a re-admission waits for the gap between
// them — or, when the second job got into it first, for that job's end.
func TestStartJobWaitsForThePreviousEnd(t *testing.T) {
	dir := t.TempDir()
	cls := startTestCluster(t, dir, 2, lazyDetector)
	log0 := watch(t, cls[0])
	cls[1].Close()
	cls[0].DeclareDead(1)

	first := startJob(cls[0], nil)
	var firstEnded atomic.Bool
	started := make(chan *Job)
	go func() { started <- startJob(cls[0], nil) }()
	rejoined := make(chan error, 1)
	go func() {
		cfg := testClusterConfig(dir, 1, 2)
		lazyDetector(&cfg)
		cfg.Rejoin = true
		nc, err := NewCluster(cfg)
		if err == nil {
			cls[1] = nc // Cleanup closes it
		}
		rejoined <- err
	}()
	select {
	case j := <-started:
		t.Fatalf("job %d started while job %d was in flight", j.Gen, first.Gen)
	case err := <-rejoined:
		t.Fatalf("rank 1 was re-admitted while job %d was in flight (%v)", first.Gen, err)
	case <-time.After(200 * time.Millisecond):
	}
	firstEnded.Store(true)
	first.End()

	var second *Job
	select {
	case second = <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("the second job never started after the first ended")
	}
	if !firstEnded.Load() || second.Gen <= first.Gen {
		t.Fatalf("second job (generation %d) started before the first (%d) ended", second.Gen, first.Gen)
	}
	// Whichever of the two got the gap: the job's base and the log agree on
	// the membership it was placed against.
	if len(second.DeadOrder) == 1 {
		// The job got in first: the rank stays out until its end.
		select {
		case err := <-rejoined:
			t.Fatalf("rank 1 was re-admitted under job %d, which was placed without it (%v)", second.Gen, err)
		case <-time.After(200 * time.Millisecond):
		}
	}
	second.End()
	if err := <-rejoined; err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	ev := await(t, log0, EventRejoin)
	if before := ev.Gen < second.Gen; before != (len(second.DeadOrder) == 0) {
		t.Errorf("re-admission at generation %d, job %d placed against dead ranks %v: the job's base and the log disagree", ev.Gen, second.Gen, second.DeadOrder)
	}
}

// startJob starts c's next job; with no deadline it always starts.
func startJob(c *Cluster, payload []byte) *Job {
	j, _ := c.StartJob(context.Background(), payload)
	return j
}

// A request whose context ends while its job queues behind another gets the
// context's error back and leaves no trace: no job in any rank's log, no
// generation spent, and the next job starts as if it had never asked.
func TestStartJobHonoursItsContext(t *testing.T) {
	cls := startTestCluster(t, t.TempDir(), 2, lazyDetector)
	log0, log1 := watch(t, cls[0]), watch(t, cls[1])
	first := startJob(cls[0], []byte("first"))
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	late := make(chan error, 1)
	go func() {
		_, err := cls[0].StartJob(ctx, []byte("late"))
		late <- err
	}()
	select {
	case err := <-late:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("StartJob behind a running job: %v, want context.DeadlineExceeded", err)
		}
	case <-time.After(time.Second):
		t.Fatal("StartJob still waiting 1s into a 100ms deadline")
	}
	first.End()
	next := startJob(cls[0], []byte("next"))
	defer next.End()
	if next.Gen != first.Gen+1 {
		t.Errorf("next job at generation %d after %d: the refused one spent a generation", next.Gen, first.Gen)
	}
	for r, log := range []<-chan Event{log0, log1} {
		for _, want := range []*Job{first, next} {
			if ev := await(t, log, EventJob); ev.Gen != want.Gen || string(ev.Job.Payload) != string(want.Payload) {
				t.Errorf("rank %d: job %q at generation %d in the log, want %q at %d",
					r, ev.Job.Payload, ev.Gen, want.Payload, want.Gen)
			}
		}
	}
}

// (g) A run's transport report is its own traffic on every rank of a
// standing cluster: the delivery engine lives as long as the cluster and
// subtracts what the wire had counted when the run attached. So are the
// parcel counts of rank 0's runtime, re-armed (Reset) for the second run:
// one parcel and its payload bytes per Send, none per retransmission.
func TestTransportStatsArePerRun(t *testing.T) {
	cls := startTestCluster(t, t.TempDir(), 2, lazyDetector)
	log1 := watch(t, cls[1])
	data := int64(len(AppendFrame(nil, &Frame{Payload: make([]byte, 4)})))
	ack := int64(len(AppendFrame(nil, &Frame{})))
	var rt0 clusterRuntime
	for _, n := range []int{10, 3} {
		w0, w1 := newWireRank(cls[0], n, socketDelivery), newWireRank(cls[1], n, socketDelivery)
		if rt0.Runtime != nil {
			if err := rt0.Reset(); err != nil {
				t.Fatal(err)
			}
			w0.rt = rt0
		}
		rt0 = w0.rt
		job := startJob(cls[0], nil)
		var st0 Stats
		sent := make(chan struct{})
		go func() {
			defer close(sent)
			defer cls[0].Attach(job, w0.sink).Close()
			st0 = w0.rt.Run(func() {
				for i := 0; i < n; i++ {
					w0.send(1, i)
				}
			})
		}()
		run1 := cls[1].Attach(await(t, log1, EventJob).Job, w1.sink)
		w1.receive(t, n)
		run1.Close()
		<-sent // every acknowledgment is in, so every one has been counted out
		st1 := w1.rt.StatsNow()
		job.End()
		assertExactlyOnce(t, w1.handled)
		nn := int64(n)
		if st0.ParcelsSent != nn || st0.ParcelBytes != 4*nn {
			t.Errorf("rank 0, run of %d parcels: its runtime counts %d parcels of %d bytes; want %d of %d", n, st0.ParcelsSent, st0.ParcelBytes, nn, 4*nn)
		}
		if tr := st0.Transport; tr.BytesOut != nn*data || tr.BytesIn != nn*ack || tr.WireMessages != nn {
			t.Errorf("rank 0, run of %d parcels: %d bytes out, %d in, %d messages; want %d, %d, %d", n, tr.BytesOut, tr.BytesIn, tr.WireMessages, nn*data, nn*ack, nn)
		}
		if tr := st1.Transport; tr.BytesOut != nn*ack || tr.BytesIn != nn*data || tr.WireMessages != nn {
			t.Errorf("rank 1, run of %d parcels: %d bytes out, %d in, %d messages; want %d, %d, %d", n, tr.BytesOut, tr.BytesIn, tr.WireMessages, nn*ack, nn*data, nn)
		}
	}
}

// A peer whose acknowledgment was lost retransmits to a rank whose run has
// finished — typically a worker's last gathered target, to a rank 0 that has
// ended the run — and cannot finish itself until it is answered (under a
// lossy wire that is every other evaluation: TestChaosProfiles times out
// without it). The rank's delivery engine answers: it outlives the run, so
// nothing of the run has to.
func TestFinishedRunStillAcknowledges(t *testing.T) {
	cls := startTestCluster(t, t.TempDir(), 2, lazyDetector)
	log1 := watch(t, cls[1])
	job := startJob(cls[0], nil)
	defer job.End()
	defer cls[0].Attach(job, func(Frame) {}).Close()
	ack := int64(len(AppendFrame(nil, &Frame{})))
	acked := func(n int64) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); cls[0].TransportStats().BytesIn < n*ack; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("rank 0 received %d bytes, want %d acknowledgments", cls[0].TransportStats().BytesIn, n)
			}
		}
	}

	parcel := Message{Src: 0, Dst: 1, Seq: 1, Kind: 1, Payload: []byte{0, 0, 0, 0}}
	var got frameLog
	run1 := cls[1].Attach(await(t, log1, EventJob).Job, got.sink)
	cls[0].Transport().Send(parcel)
	got.wait(t, 1)
	run1.Close()
	acked(1)
	// The acknowledgment "was lost": rank 0 sends the parcel again.
	cls[0].Transport().Send(parcel)
	acked(2)
	if n := got.len(); n != 1 {
		t.Errorf("the parcel was handled %d times, want once", n)
	}
	if st := cls[1].TransportStats(); st.WireMessages != 2 || st.BytesOut != 2*ack {
		t.Errorf("rank 1 sent %d messages, %d bytes; want its two acknowledgments", st.WireMessages, st.BytesOut)
	}
	if st := cls[1].TransportStats(); st.LateDrops != 1 || cls[1].tp.parkedLen() != 0 {
		t.Errorf("late copy: counted %d times, %d frames parked; want 1 and 0", st.LateDrops, cls[1].tp.parkedLen())
	}
}

// A job's dead-rank base is the membership at the job's place in the log,
// on a worker as on rank 0: a verdict queued right before the job is in it,
// one right behind it is not — that one ends the run.
func TestJobBaseIsTheMembershipAtItsFrame(t *testing.T) {
	cls := startTestCluster(t, t.TempDir(), 4, lazyDetector)
	log1 := watch(t, cls[1])
	cls[0].DeclareDead(3)
	first := startJob(cls[0], nil)
	cls[0].DeclareDead(2)
	first.End()
	second := startJob(cls[0], nil)
	defer second.End()

	seen1 := await(t, log1, EventJob).Job
	if ev := await(t, log1, EventDead); ev.Rank != 2 {
		t.Fatalf("rank 1 read the verdict of rank %d behind the first job, want rank 2's", ev.Rank)
	}
	seen2 := await(t, log1, EventJob).Job
	for _, j := range []*Job{first, seen1} {
		if j.Gen != first.Gen || !slices.Equal(j.DeadOrder, []int{3}) {
			t.Errorf("first job: generation %d placed against dead ranks %v, want %d and [3]", j.Gen, j.DeadOrder, first.Gen)
		}
	}
	for _, j := range []*Job{second, seen2} {
		if j.Gen != second.Gen || !slices.Equal(j.DeadOrder, []int{3, 2}) {
			t.Errorf("second job: generation %d placed against dead ranks %v, want %d and [3 2]", j.Gen, j.DeadOrder, second.Gen)
		}
	}
}
