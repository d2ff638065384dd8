package amt

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Reliable parcel delivery between ranks (wire mode, Config.World > 1):
// per-(src,dst) sequence numbers, receiver-side dedup, acks, and
// retransmission with exponential backoff + jitter under a delivery
// deadline. A parcel is an encoded payload plus its kind tag; the payload is
// retained by the sender-side entry so retransmission re-emits the identical
// frame, and the receiving process routes decoded frames through the
// runtime's registered wire handler. The wire contract is at-least-once; the
// dedup filter turns it into exactly-once effect, so every parcel's inputs
// are applied once no matter how many copies arrive. A broken socket, a full
// queue and an injected fault are all the same thing to this engine: loss.

// DeliveryConfig tunes the reliable-delivery layer. The zero value picks the
// defaults noted on each field.
type DeliveryConfig struct {
	// RetryBase is the backoff before the first retransmission (default
	// 2ms); each further attempt doubles it up to RetryMax (default 64ms).
	RetryBase time.Duration
	RetryMax  time.Duration
	// RetryJitter widens each backoff by a uniform multiplicative factor in
	// [1, 1+RetryJitter], decorrelating retransmission bursts (default 0.5).
	RetryJitter float64
	// Deadline bounds how long a parcel may stay unacked before the sender
	// gives up (default 10s). A deadline-exceeded parcel is counted and
	// abandoned — the evaluation will report the missing inputs.
	Deadline time.Duration
}

func (c DeliveryConfig) withDefaults() DeliveryConfig {
	if c.RetryBase <= 0 {
		c.RetryBase = 2 * time.Millisecond
	}
	if c.RetryMax <= 0 {
		c.RetryMax = 64 * time.Millisecond
	}
	if c.RetryJitter <= 0 {
		c.RetryJitter = 0.5
	}
	if c.Deadline <= 0 {
		c.Deadline = 10 * time.Second
	}
	return c
}

// TransportStats counts parcel-transport activity during one Run: the
// delivery layer's view (sent/retried/acked/deadline, delivered/deduped) plus
// the wire's own counters over the same stretch — the engine is one run
// long and subtracts what the wire read when it was built, so a run on a
// standing cluster reports its own traffic. All-zero for an in-process
// runtime, whose parcels never touch a wire.
type TransportStats struct {
	// Sender side.
	Sent             int64 // application parcels handed to the wire
	Retried          int64 // retransmissions
	Acked            int64 // parcels settled by an ack
	DeadlineExceeded int64 // parcels abandoned: delivery deadline or run teardown
	// Receiver side.
	Delivered int64 // first copies: the parcel was handed to the wire handler
	Deduped   int64 // redundant copies suppressed by the sequence filter
	// Crash handling.
	Severed   int64 // parcels abandoned because an endpoint rank died
	LateDrops int64 // copies arriving after the runtime shut down
	// Wire faults (from Transport.Stats).
	Dropped    int64
	Duplicated int64
	// Wire volume and connection health (from Transport.Stats): messages and
	// encoded frame bytes actually carried, plus the socket transport's
	// reconnect, rejected-handshake and generation-fence counters.
	WireMessages      int64
	BytesOut, BytesIn int64
	Reconnects        int64
	HandshakeFailures int64
	StaleFenced       int64
}

// WireHandler consumes one deduplicated inbound data frame on a scheduler
// worker of the local locality.
type WireHandler func(w *Worker, f Frame)

// pairKey identifies one directed (src, dst) parcel channel.
type pairKey struct{ src, dst int32 }

// sendEntry is the sender-side record of one unacked parcel. The frame
// fields are immutable; every mutable field is owned by the delivery
// engine's critical section.
type sendEntry struct {
	key      pairKey
	seq      uint64
	kind     uint16
	epoch    uint32
	payload  []byte
	deadline time.Time
	backoff  time.Duration // guarded by delivery.mu
	timer    *time.Timer   // guarded by delivery.mu
	settled  bool          // guarded by delivery.mu
}

// delivery is the per-runtime parcel delivery engine.
type delivery struct {
	rt   *Runtime
	cfg  DeliveryConfig
	wire Transport
	base WireStats // the wire's counters when this engine was built

	mu      sync.Mutex
	rng     *rand.Rand                        // guarded by mu
	nextSeq map[pairKey]uint64                // guarded by mu
	unacked map[pairKey]map[uint64]*sendEntry // guarded by mu
	// seen is the receiver-side dedup filter. It grows with the parcel count
	// of one single-shot run; a long-lived engine would compact it with a
	// cumulative-ack watermark.
	seen map[pairKey]map[uint64]bool // guarded by mu

	// dead marks ranks whose endpoints have been severed by a death verdict,
	// indexed by global rank.
	dead []atomic.Bool

	sent             atomic.Int64
	retried          atomic.Int64
	acked            atomic.Int64
	deadlineExceeded atomic.Int64
	delivered        atomic.Int64
	deduped          atomic.Int64
	severed          atomic.Int64
	lateDrops        atomic.Int64
}

func newDelivery(rt *Runtime, wire Transport, cfg DeliveryConfig, seed int64, world int) *delivery {
	return &delivery{
		rt:      rt,
		cfg:     cfg.withDefaults(),
		wire:    wire,
		base:    wire.Stats(),
		rng:     rand.New(rand.NewSource(seed*6364136223846793005 + 1442695040888963407)),
		nextSeq: make(map[pairKey]uint64),
		unacked: make(map[pairKey]map[uint64]*sendEntry),
		seen:    make(map[pairKey]map[uint64]bool),
		dead:    make([]atomic.Bool, world),
	}
}

// OnWire registers the inbound data-frame handler. Must be set before frames
// can arrive, i.e. before the cluster's data plane starts.
func (rt *Runtime) OnWire(h WireHandler) { rt.wireHandler = h }

// Hold acquires one pending unit, keeping Run alive while remote input may
// still arrive: a wire-mode rank cannot infer global quiescence from its
// local counter, so the driver holds the runtime open until the cluster
// signals completion.
func (rt *Runtime) Hold() { rt.pending.Add(1) }

// Release releases a Hold.
func (rt *Runtime) Release() { rt.finish() }

// SeverRank fences a dead rank's wire endpoints: sends to it are refused,
// unacked parcels touching it settle, and inbound frames from it are
// dropped. Called on the cluster's death verdict.
func (rt *Runtime) SeverRank(rank int) { rt.net.sever(rank) }

// SendWire sends one typed encoded parcel from this rank to a remote rank
// with reliable-delivery bookkeeping. The payload slice is retained until
// the parcel settles; callers must not reuse it.
func (rt *Runtime) SendWire(dst int, kind uint16, epoch uint32, payload []byte) {
	rt.parcelsSent.Add(1)
	rt.parcelBytes.Add(int64(len(payload)))
	rt.net.send(rt.locs[0].Rank, dst, kind, epoch, payload)
}

// DeliverWireFrame is the inbound edge of wire mode — the frame sink a run
// attaches to its cluster — called for every decoded frame of its
// generation. Acks settle sender entries; data frames are deduplicated,
// acked, and handed to the wire handler on a scheduler worker. Frames from a
// fenced (dead) source rank are dropped unacknowledged — a corpse gets no
// replies.
func (rt *Runtime) DeliverWireFrame(f Frame) {
	d := rt.net
	key := pairKey{int32(f.Src), int32(f.Dst)}
	if f.Ack() {
		// An ack frame flows dst→src of the data parcel it settles, so the
		// sender's entry is keyed by the reversed pair.
		d.onAck(pairKey{int32(f.Dst), int32(f.Src)}, f.Seq)
		return
	}
	if f.Src < 0 || f.Src >= len(d.dead) || d.dead[f.Src].Load() {
		return
	}
	if rt.shuttingDown.Load() {
		// A copy straggling in after the run completed: count it (never
		// silently lose it) and still ack so the sender settles.
		d.lateDrops.Add(1)
		d.ack(key, f.Seq)
		return
	}
	d.mu.Lock()
	sm := d.seen[key]
	if sm == nil {
		sm = make(map[uint64]bool)
		d.seen[key] = sm
	}
	dup := sm[f.Seq]
	sm[f.Seq] = true
	d.mu.Unlock()
	if dup {
		d.deduped.Add(1)
	} else {
		d.delivered.Add(1)
		h := rt.wireHandler
		rt.locs[0].Spawn(func(w *Worker) { h(w, f) })
	}
	// Every copy acks: the previous ack may have been lost.
	d.ack(key, f.Seq)
}

// ack emits the delivery acknowledgment for one received parcel.
func (d *delivery) ack(key pairKey, seq uint64) {
	d.wire.Send(Message{Src: int(key.dst), Dst: int(key.src), Seq: seq, Ack: true})
}

// settle marks every unacked entry matching the filter settled, stops its
// retransmission timer and releases its pending unit; it returns how many
// entries it settled.
func (d *delivery) settle(match func(pairKey) bool) int {
	var timers []*time.Timer
	n := 0
	d.mu.Lock()
	for key, um := range d.unacked {
		if !match(key) {
			continue
		}
		for seq, e := range um {
			e.settled = true
			delete(um, seq)
			if e.timer != nil {
				timers = append(timers, e.timer)
			}
			n++
		}
	}
	d.mu.Unlock()
	for _, t := range timers {
		t.Stop()
	}
	for i := 0; i < n; i++ {
		d.rt.finish()
	}
	return n
}

// sever tears down a dead rank's endpoints: future sends to it are refused
// and every in-flight unacked parcel touching it (either direction) is
// settled, so retry loops aimed at a corpse end at the death verdict instead
// of hammering the wire until the delivery deadline.
func (d *delivery) sever(rank int) {
	d.dead[rank].Store(true)
	n := d.settle(func(k pairKey) bool { return int(k.src) == rank || int(k.dst) == rank })
	d.severed.Add(int64(n))
}

// purge settles every outstanding unacked parcel regardless of endpoint.
// Called at Run teardown so a failed or aborted run's stragglers cannot keep
// retransmitting into the transport after Run returns: the next run shares
// the socket, and a re-emitted frame is stamped with the *current* cluster
// generation at send time — a dead run's payload would ride straight through
// the next run's generation fence and shadow its real broadcast. A clean run
// has nothing unacked, so this is a no-op on the success path.
func (d *delivery) purge() {
	n := d.settle(func(pairKey) bool { return true })
	d.deadlineExceeded.Add(int64(n))
}

// stats merges the delivery-layer counters with what the wire has counted
// since this engine was built.
func (d *delivery) stats() TransportStats {
	w, b := d.wire.Stats(), d.base
	return TransportStats{
		Sent:              d.sent.Load(),
		Retried:           d.retried.Load(),
		Acked:             d.acked.Load(),
		DeadlineExceeded:  d.deadlineExceeded.Load(),
		Delivered:         d.delivered.Load(),
		Deduped:           d.deduped.Load(),
		Severed:           d.severed.Load(),
		LateDrops:         d.lateDrops.Load(),
		Dropped:           w.Dropped - b.Dropped,
		Duplicated:        w.Duplicated - b.Duplicated,
		WireMessages:      w.Messages - b.Messages,
		BytesOut:          w.BytesOut - b.BytesOut,
		BytesIn:           w.BytesIn - b.BytesIn,
		Reconnects:        w.Reconnects - b.Reconnects,
		HandshakeFailures: w.HandshakeFailures - b.HandshakeFailures,
		StaleFenced:       w.StaleFenced - b.StaleFenced,
	}
}

// send allocates a sequence number, registers the parcel for retransmission
// (holding one runtime pending unit until it settles by ack, deadline or
// sever, so Run cannot drain while deliveries are outstanding) and puts the
// first copy on the wire.
func (d *delivery) send(src, dst int, kind uint16, epoch uint32, payload []byte) {
	if d.dead[dst].Load() {
		// The destination has been declared dead: refuse the send outright
		// rather than spinning a retransmission loop at a corpse.
		d.severed.Add(1)
		return
	}
	key := pairKey{int32(src), int32(dst)}
	d.mu.Lock()
	seq := d.nextSeq[key] + 1
	d.nextSeq[key] = seq
	e := &sendEntry{
		key: key, seq: seq, kind: kind, epoch: epoch, payload: payload,
		deadline: time.Now().Add(d.cfg.Deadline),
		backoff:  d.cfg.RetryBase,
	}
	um := d.unacked[key]
	if um == nil {
		um = make(map[uint64]*sendEntry)
		d.unacked[key] = um
	}
	um[seq] = e
	d.mu.Unlock()

	d.rt.pending.Add(1) // released when the entry settles
	d.sent.Add(1)
	d.transmit(e)
}

// transmit puts one copy of the parcel on the wire and arms the
// retransmission timer with the entry's current (jittered) backoff.
func (d *delivery) transmit(e *sendEntry) {
	d.mu.Lock()
	if e.settled {
		d.mu.Unlock()
		return
	}
	wait := time.Duration(float64(e.backoff) * (1 + d.rng.Float64()*d.cfg.RetryJitter))
	if e.backoff < d.cfg.RetryMax {
		e.backoff *= 2
		if e.backoff > d.cfg.RetryMax {
			e.backoff = d.cfg.RetryMax
		}
	}
	e.timer = time.AfterFunc(wait, func() { d.retry(e) })
	d.mu.Unlock()
	d.wire.Send(Message{
		Src: int(e.key.src), Dst: int(e.key.dst), Seq: e.seq,
		Kind: e.kind, Epoch: e.epoch, Payload: e.payload,
	})
}

// retry fires when a parcel stayed unacked for one backoff period: give up
// on a severed endpoint or past the deadline, otherwise re-emit the
// identical frame. A retransmission the receiver had in fact already
// processed is harmless — the dedup filter suppresses it and re-acks.
func (d *delivery) retry(e *sendEntry) {
	severed := d.dead[e.key.dst].Load() || d.dead[e.key.src].Load()
	d.mu.Lock()
	if e.settled {
		d.mu.Unlock()
		return
	}
	expired := time.Now().After(e.deadline)
	if expired || severed {
		e.settled = true
		delete(d.unacked[e.key], e.seq)
	}
	d.mu.Unlock()
	switch {
	case severed:
		// The sever sweep raced this timer: stop retransmitting and settle.
		d.severed.Add(1)
		d.rt.finish()
	case expired:
		d.deadlineExceeded.Add(1)
		d.rt.finish()
	default:
		d.retried.Add(1)
		d.transmit(e)
	}
}

// onAck settles the entry on the first ack; duplicate acks (and acks for
// parcels already abandoned at the deadline) are no-ops.
func (d *delivery) onAck(key pairKey, seq uint64) {
	d.mu.Lock()
	e := d.unacked[key][seq]
	if e == nil {
		d.mu.Unlock()
		return
	}
	e.settled = true
	delete(d.unacked[key], seq)
	timer := e.timer
	d.mu.Unlock()
	if timer != nil {
		timer.Stop()
	}
	d.acked.Add(1)
	d.rt.finish()
}
