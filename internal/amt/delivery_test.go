package amt

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// framePipe is a test-only in-memory Transport joining the delivery engines
// of one process: every frame is encoded with AppendFrame, decoded back
// with ReadFrame, and handed to the destination engine's receive — the codec
// round trip a socket performs, without the socket or the fence.
type framePipe struct {
	engs     []*delivery // indexed by rank; set before any Send
	messages atomic.Int64
	bytesOut atomic.Int64
}

func (p *framePipe) Stats() WireStats {
	return WireStats{Messages: p.messages.Load(), BytesOut: p.bytesOut.Load()}
}

func (p *framePipe) Send(f Frame) {
	enc := AppendFrame(nil, &f)
	p.messages.Add(1)
	p.bytesOut.Add(int64(len(enc)))
	got, err := ReadFrame(bufio.NewReader(bytes.NewReader(enc)))
	if err != nil {
		panic("framePipe: frame did not survive its own codec: " + err.Error())
	}
	if d := p.engs[f.Dst]; d.receive(got) {
		d.ack(got)
	}
}

// pipeWorld is one delivery engine per rank joined by a framePipe,
// optionally behind one shared FaultyTransport (so both ends report its
// fault counters), sharing one dead set as a cluster's ranks agree on one.
type pipeWorld struct {
	engs []*delivery
}

func newPipeWorld(world int, fault *FaultProfile, dcfg DeliveryConfig) *pipeWorld {
	pipe := &framePipe{}
	var wire Transport = pipe
	if fault != nil {
		wire = NewFaultyTransport(pipe, *fault)
	}
	pw, dead := &pipeWorld{}, make([]atomic.Bool, world)
	for r := 0; r < world; r++ {
		pw.engs = append(pw.engs, newDelivery(r, wire, dcfg, dead))
	}
	pipe.engs = pw.engs
	return pw
}

// run attaches one run on every rank — h is handed each rank's parcels —
// and executes setup on rank 0's runtime with a sender of its parcels, while
// every other rank stays open for inbound frames; when rank 0's Run returns
// — every parcel it sent has settled — the receivers are released and
// drained. It returns each rank's transport counters.
func (pw *pipeWorld) run(h func(rank int, f Frame), setup func(send func(dst int, payload []byte))) []TransportStats {
	rts := make([]*Runtime, len(pw.engs))
	for r, d := range pw.engs {
		rts[r] = New(Config{Rank: r, Workers: 2, Seed: int64(r) + 1})
		d.attach(func(f Frame) { h(r, f) })
	}
	var wg sync.WaitGroup
	held := make(chan struct{}, len(rts))
	for _, rt := range rts[1:] {
		wg.Add(1)
		go func(rt *Runtime) {
			defer wg.Done()
			rt.Run(func() { rt.Hold(); held <- struct{}{} })
		}(rt)
	}
	for range rts[1:] {
		<-held
	}
	rt0 := rts[0]
	rt0.Run(func() {
		setup(func(dst int, payload []byte) { pw.engs[0].send(rt0, dst, 1, payload) })
	})
	for _, rt := range rts[1:] {
		rt.Release()
	}
	wg.Wait()
	stats := make([]TransportStats, len(pw.engs))
	for r, d := range pw.engs {
		stats[r] = d.stats()
	}
	return stats
}

// sendN fires n indexed parcels from rank 0, round-robin over the other
// ranks, and returns how many times each was handed to a wire handler plus
// every rank's counters. The count stops when rank 0's run has settled —
// every parcel acked, so handled at least once — and a copy a faulty wire
// still holds on a timer arrives later: the handler counts under the read
// half of stop, and sendN takes the write half before it returns, so no
// late copy writes the counts once the caller reads them.
func sendN(pw *pipeWorld, n int) ([]int64, []TransportStats) {
	runs := make([]int64, n)
	var stop sync.RWMutex
	stopped := false
	stats := pw.run(func(_ int, f Frame) {
		stop.RLock()
		defer stop.RUnlock()
		if !stopped {
			atomic.AddInt64(&runs[binary.LittleEndian.Uint32(f.Payload)], 1)
		}
	}, func(send func(int, []byte)) {
		for i := 0; i < n; i++ {
			send(1+i%(len(pw.engs)-1), binary.LittleEndian.AppendUint32(nil, uint32(i)))
		}
	})
	stop.Lock()
	stopped = true
	stop.Unlock()
	return runs, stats
}

func assertAtLeastOnce(t *testing.T, runs []int64) {
	t.Helper()
	for i := range runs {
		if r := atomic.LoadInt64(&runs[i]); r < 1 {
			t.Fatalf("parcel %d was never handled", i)
		}
	}
}

func assertExactlyOnce(t *testing.T, runs []int64) {
	t.Helper()
	for i := range runs {
		if r := atomic.LoadInt64(&runs[i]); r != 1 {
			t.Fatalf("parcel %d was handled %d times, want exactly 1", i, r)
		}
	}
}

// fastDelivery is a retry clock at the in-memory pipe's scale.
var fastDelivery = DeliveryConfig{RetryBase: 2 * time.Millisecond, RetryMax: 64 * time.Millisecond, Deadline: 10 * time.Second}

func TestReliableDeliveryUnderDrop(t *testing.T) {
	const n = 200
	pw := newPipeWorld(2, &FaultProfile{Seed: 1, Drop: 0.3},
		DeliveryConfig{RetryBase: time.Millisecond, RetryMax: 64 * time.Millisecond, Deadline: 20 * time.Second})
	runs, stats := sendN(pw, n)
	assertAtLeastOnce(t, runs)
	snd, rcv := stats[0], stats[1]
	if snd.Sent != n {
		t.Errorf("sent = %d, want %d", snd.Sent, n)
	}
	if rcv.Delivered < n {
		t.Errorf("delivered = %d, want at least %d", rcv.Delivered, n)
	}
	if snd.Dropped == 0 {
		t.Error("30% drop rate injected no drops")
	}
	if snd.Retried == 0 {
		t.Error("drops recovered without a single retry")
	}
	if snd.DeadlineExceeded != 0 {
		t.Errorf("%d parcels exceeded the deadline", snd.DeadlineExceeded)
	}
	if snd.Acked != n {
		t.Errorf("acked = %d, want %d", snd.Acked, n)
	}
}

// Over a duplicating wire every copy that arrives is handed over and acked:
// the engine is at-least-once, and the run's own filter drops the repeats.
// Every parcel still settles by its first ack; none is abandoned.
func TestDuplicatesReachTheHandler(t *testing.T) {
	const n = 200
	pw := newPipeWorld(2, &FaultProfile{Seed: 2, Duplicate: 0.5}, fastDelivery)
	runs, stats := sendN(pw, n)
	assertAtLeastOnce(t, runs)
	snd, rcv := stats[0], stats[1]
	if snd.Duplicated == 0 {
		t.Error("50% duplication injected no duplicates")
	}
	if rcv.Delivered <= n {
		t.Errorf("delivered %d copies of %d parcels: no duplicate reached the handler", rcv.Delivered, n)
	}
	if snd.Acked != n || snd.DeadlineExceeded != 0 {
		t.Errorf("acked %d, abandoned %d; want all %d acked, none abandoned", snd.Acked, snd.DeadlineExceeded, n)
	}
}

func TestReorderAndDelayStillDeliverAll(t *testing.T) {
	pw := newPipeWorld(3, &FaultProfile{
		Seed: 3, Delay: 200 * time.Microsecond,
		Reorder: true, ReorderJitter: 2 * time.Millisecond,
	}, fastDelivery)
	runs, _ := sendN(pw, 100)
	assertAtLeastOnce(t, runs)
}

func TestSlowRankDelaysItsParcels(t *testing.T) {
	const pause = 10 * time.Millisecond
	pw := newPipeWorld(2, &FaultProfile{Seed: 4, SlowRank: 1, SlowDelay: pause}, fastDelivery)
	var arrived atomic.Int64
	start := time.Now()
	pw.run(func(int, Frame) { arrived.Store(int64(time.Since(start))) },
		func(send func(int, []byte)) { send(1, nil) })
	if got := time.Duration(arrived.Load()); got < pause {
		t.Errorf("parcel to the paused rank arrived after %v, want >= %v", got, pause)
	}
}

// TestDeliveryDeadlineExceeded: with every message dropped the sender must
// eventually give up, count the failure, and let the runtime drain rather
// than hang.
func TestDeliveryDeadlineExceeded(t *testing.T) {
	const n = 5
	pw := newPipeWorld(2, &FaultProfile{Seed: 5, Drop: 1.0}, DeliveryConfig{
		RetryBase: time.Millisecond, RetryMax: 4 * time.Millisecond,
		Deadline: 50 * time.Millisecond,
	})
	done := make(chan struct{})
	var runs []int64
	var stats []TransportStats
	go func() {
		runs, stats = sendN(pw, n)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("runtime hung on undeliverable parcels")
	}
	for i := range runs {
		if r := atomic.LoadInt64(&runs[i]); r != 0 {
			t.Errorf("parcel %d was handled %d times over a fully lossy wire", i, r)
		}
	}
	if got := stats[0].DeadlineExceeded; got != n {
		t.Errorf("deadlineExceeded = %d, want %d", got, n)
	}
}

// TestLCOAtLeastOnceOverFaultyWire is the engine's contract as an LCO input
// counter sees it over a dropping and duplicating wire: every parcel is
// handed over at least once and every one is acked, none abandoned. Counting
// a repeat once is the run's filter's job (core's parcel install), not this
// engine's.
func TestLCOAtLeastOnceOverFaultyWire(t *testing.T) {
	const inputs = 64
	pw := newPipeWorld(2, &FaultProfile{Seed: 6, Drop: 0.2, Duplicate: 0.2},
		DeliveryConfig{RetryBase: time.Millisecond, RetryMax: 64 * time.Millisecond})
	runs, stats := sendN(pw, inputs)
	assertAtLeastOnce(t, runs)
	if snd := stats[0]; snd.Acked != inputs || snd.DeadlineExceeded != 0 {
		t.Errorf("acked %d, abandoned %d; want all %d acked, none abandoned", snd.Acked, snd.DeadlineExceeded, inputs)
	}
	if stats[0].Retried == 0 || stats[0].Duplicated == 0 {
		t.Errorf("wire was not faulty enough to prove anything: retried=%d duplicated=%d", stats[0].Retried, stats[0].Duplicated)
	}
}

// recordingWire is a transport that swallows every frame, recording the
// send time of each data frame (so the delivery layer's retransmission
// schedule can be observed directly) and every ack.
type recordingWire struct {
	mu    sync.Mutex
	times []time.Time
	acks  []Frame
}

func (r *recordingWire) Stats() WireStats { return WireStats{} }

func (r *recordingWire) Send(f Frame) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f.Ack() {
		r.acks = append(r.acks, f)
		return
	}
	r.times = append(r.times, time.Now())
}

func (r *recordingWire) sends() []time.Time {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]time.Time(nil), r.times...)
}

// lonelyEngine is rank 0 of a two-rank world whose wire goes nowhere, with a
// run attached.
func lonelyEngine(rw *recordingWire, dcfg DeliveryConfig) *delivery {
	d := newDelivery(0, rw, dcfg, make([]atomic.Bool, 2))
	d.attach(func(Frame) {})
	return d
}

// The retransmission schedule is a contract the chaos suites lean on: each
// gap at least the current backoff step, at most the step widened by the
// jitter factor (plus scheduling slack), the step doubling up to RetryMax
// and then pinned there, and the whole loop ending at the deadline with the
// parcel counted abandoned — not retried forever, not given up early.
func TestDeliveryBackoffEnvelope(t *testing.T) {
	const (
		base     = 20 * time.Millisecond
		max      = 80 * time.Millisecond
		jitter   = 0.5
		deadline = 700 * time.Millisecond
		slack    = 60 * time.Millisecond // timer-firing lateness under CI load
	)
	rw := &recordingWire{}
	d := lonelyEngine(rw, DeliveryConfig{RetryBase: base, RetryMax: max, RetryJitter: jitter, Deadline: deadline})
	rt := New(Config{Workers: 1, Seed: 3})
	start := time.Now()
	rt.Run(func() { d.send(rt, 1, 1, []byte("never acked")) })
	elapsed := time.Since(start)
	stats := d.stats()

	if got := stats.DeadlineExceeded; got != 1 {
		t.Fatalf("DeadlineExceeded = %d, want 1", got)
	}
	if stats.Acked != 0 {
		t.Fatalf("Acked = %d, want 0", stats.Acked)
	}
	if elapsed < deadline {
		t.Fatalf("run settled after %v, before the %v deadline", elapsed, deadline)
	}

	times := rw.sends()
	if len(times) < 4 {
		t.Fatalf("only %d transmissions before the deadline; backoff cap not honored?", len(times))
	}
	if int64(stats.Retried) != int64(len(times)-1) {
		t.Fatalf("Retried = %d, but %d retransmissions hit the wire", stats.Retried, len(times)-1)
	}
	// Expected backoff step per gap: base doubling to max, then flat.
	step := base
	for i := 1; i < len(times); i++ {
		gap := times[i].Sub(times[i-1])
		lo := step - 2*time.Millisecond // timer granularity
		hi := time.Duration(float64(step)*(1+jitter)) + slack
		if gap < lo || gap > hi {
			t.Fatalf("gap %d = %v outside jittered envelope [%v, %v] (step %v)", i, gap, lo, hi, step)
		}
		step = min(2*step, max)
	}
	// The loop must stop at the deadline: the last transmission fits inside
	// it, and the count is bounded by the capped schedule.
	if last := times[len(times)-1].Sub(times[0]); last > deadline+time.Duration(float64(max)*(1+jitter))+slack {
		t.Fatalf("last retransmission at %v, past the deadline window", last)
	}
	if len(times) > 16 {
		t.Fatalf("%d transmissions in %v: backoff not slowing down", len(times), deadline)
	}
}

// An ack settles the entry and stops the retransmission loop immediately.
func TestDeliveryBackoffStopsOnAck(t *testing.T) {
	rw := &recordingWire{}
	d := lonelyEngine(rw, DeliveryConfig{RetryBase: 10 * time.Millisecond, RetryMax: 40 * time.Millisecond, Deadline: 5 * time.Second})
	rt := New(Config{Workers: 1, Seed: 4})
	start := time.Now()
	rt.Run(func() {
		d.send(rt, 1, 1, []byte("acked late"))
		// Let two copies hit the wire, then deliver the ack.
		go func() {
			for {
				if len(rw.sends()) >= 2 {
					// The ack frame as rank 1 would emit it: src 1, dst 0,
					// settling rank 0's entry for (0→1, seq 1).
					d.receive(Frame{Flags: FlagAck, Src: 1, Dst: 0, Seq: 1})
					return
				}
				time.Sleep(time.Millisecond)
			}
		}()
	})
	elapsed := time.Since(start)
	stats := d.stats()
	if stats.Acked != 1 {
		t.Fatalf("Acked = %d, want 1", stats.Acked)
	}
	if stats.DeadlineExceeded != 0 {
		t.Fatalf("DeadlineExceeded = %d, want 0", stats.DeadlineExceeded)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("run took %v; ack did not stop the retransmission loop", elapsed)
	}
	n := len(rw.sends())
	time.Sleep(100 * time.Millisecond)
	if m := len(rw.sends()); m != n {
		t.Fatalf("%d transmissions after the ack settled the entry", m-n)
	}
}

// An acked parcel is garbage at once: its entry's stopped retransmission
// timer can stay in Go's timer heap until its deadline, and the entry must
// not pin the parcel (or its runtime) meanwhile. The heap is a busy
// process's: timers due before every retransmission outnumber the stopped
// ones four to one, and one due long after follows each, so the runtime
// sweeps none of the stopped ones out early. Read before any of them fires.
func TestAckedParcelsPinNothing(t *testing.T) {
	const parcels, size, due = 64, 1 << 20, 180 * time.Millisecond
	start := time.Now()
	busy := func(after time.Duration) {
		tm := time.AfterFunc(after, func() {})
		t.Cleanup(func() { tm.Stop() })
	}
	for range 4 * parcels {
		busy(due)
	}
	heap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	d := lonelyEngine(&recordingWire{}, DeliveryConfig{})
	rt := New(Config{Workers: 1})
	base := heap()
	rt.Run(func() {
		for i := range parcels {
			d.send(rt, 1, 1, make([]byte, size))
			busy(time.Hour)
			d.receive(Frame{Flags: FlagAck, Src: 1, Dst: 0, Seq: uint64(i + 1)})
		}
	})
	grown := heap() - base
	if elapsed := time.Since(start); elapsed >= due {
		t.Skipf("the sends took %v: the other timers may have fired", elapsed)
	}
	runtime.KeepAlive(d)
	if acked := d.stats().Acked; acked != parcels {
		t.Fatalf("Acked = %d, want %d", acked, parcels)
	}
	if grown > 2<<20 {
		t.Errorf("%d acked %d-byte parcels left the live heap %d KB above its baseline", parcels, size, grown>>10)
	}
}

// TestSeverStopsRetransmissionToDeadRank is the delivery-teardown test: a
// dead rank never acks, so senders retransmit until the death verdict severs
// its endpoints — at which point every unacked entry settles (Severed), the
// retry timers die (Retried stops moving), later sends are refused, and
// nothing is left spinning on the dead destination.
func TestSeverStopsRetransmissionToDeadRank(t *testing.T) {
	const n = 8
	rw := &recordingWire{} // rank 1 is a corpse: everything sent to it vanishes
	d := lonelyEngine(rw, DeliveryConfig{RetryBase: time.Millisecond, RetryMax: 4 * time.Millisecond, Deadline: 120 * time.Second})
	rt := New(Config{Workers: 1})
	severed := make(chan struct{})
	rt.Run(func() {
		for i := 0; i < n; i++ {
			d.send(rt, 1, 1, []byte{byte(i)})
		}
		// The verdict lands after the retransmission loop has been
		// exercised; Run cannot return before it, the unacked entries hold
		// pending units.
		go func() {
			defer close(severed)
			for len(rw.sends()) < 3*n {
				time.Sleep(time.Millisecond)
			}
			d.gone[1].Store(true) // the cluster marks the rank dead, then severs it
			d.sever(1)
			d.send(rt, 1, 1, []byte("to a corpse"))
		}()
	})
	<-severed
	ts := d.stats()
	if ts.Severed != n+1 {
		t.Errorf("Severed = %d, want %d unacked parcels settled by the sever + 1 send refused after it", ts.Severed, n)
	}
	if ts.Sent != n {
		t.Errorf("Sent = %d, want %d: a send to a severed rank must not reach the wire", ts.Sent, n)
	}
	if ts.Retried == 0 {
		t.Error("no retransmissions before the verdict; the loop was never exercised")
	}
	if ts.DeadlineExceeded != 0 {
		t.Errorf("%d parcels hit the deadline; sever should have settled them first", ts.DeadlineExceeded)
	}
	// Leak check: all retry timers must be dead. Any survivor would bump
	// Retried after the run.
	before := d.stats().Retried
	time.Sleep(30 * time.Millisecond)
	if after := d.stats().Retried; after != before {
		t.Errorf("retransmissions continued after the run: %d -> %d", before, after)
	}
}
