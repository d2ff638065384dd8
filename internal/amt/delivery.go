package amt

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Reliable parcel delivery between ranks: one engine per rank, built with
// its Cluster and living as long as it (Cluster.Send, Cluster.Attach). Per
// peer, sequence numbers, a receiver window, acks, and retransmission with
// exponential backoff + jitter under a delivery deadline. The sender retains
// each payload until it settles, so a retransmission re-emits the identical
// frame. The wire contract is at-least-once; the window turns it into
// exactly-once effect. A broken socket, a full queue, an injected fault and a
// frame beyond the window are all the same thing to this engine: loss.
//
// A run attaches its wire handler and detaches when it ends. Sequence spaces
// are one run long: attaching starts every pair at 1 again, which is sound
// because the generation fence hands the engine no frame of an earlier run
// once a later one has attached, and which keeps what a failed run abandoned
// from leaving a gap below the next run's window. Between runs a late copy is
// acked — its sender may be waiting for that ack to finish — counted as
// LateDrops, and dropped. The engine has no membership of its own: it reads
// the cluster's dead set, and the cluster's verdict settles a dead rank's
// pair (sever) and its re-admission restarts it (revive), each in the
// critical section that changes the membership.

// DeliveryConfig tunes the reliable-delivery layer. The zero value is a
// socket mesh's pacing, noted on each field: a faster clock retransmits
// multi-megabyte parcel bursts while the originals sit in socket buffers.
type DeliveryConfig struct {
	// RetryBase is the backoff before the first retransmission (default
	// 200ms); each further attempt doubles it up to RetryMax (default 2s).
	RetryBase time.Duration
	RetryMax  time.Duration
	// RetryJitter widens each backoff by a uniform multiplicative factor in
	// [1, 1+RetryJitter], decorrelating retransmission bursts (default 0.5).
	RetryJitter float64
	// Deadline bounds how long a parcel may stay unacked before the sender
	// gives up (default 30s). A deadline-exceeded parcel is counted and
	// abandoned — the evaluation will report the missing inputs.
	Deadline time.Duration
}

func (c DeliveryConfig) withDefaults() DeliveryConfig {
	if c.RetryBase <= 0 {
		c.RetryBase = 200 * time.Millisecond
	}
	if c.RetryMax <= 0 {
		c.RetryMax = 2 * time.Second
	}
	if c.RetryJitter <= 0 {
		c.RetryJitter = 0.5
	}
	if c.Deadline <= 0 {
		c.Deadline = 30 * time.Second
	}
	return c
}

// TransportStats counts one run's parcel transport on its rank from the
// run's Attach on (a frame that waited at the fence counts towards its run):
// the delivery layer's view plus the wire's own counters.
type TransportStats struct {
	// Sender side.
	Sent             int64 // application parcels handed to the wire
	Retried          int64 // retransmissions
	Acked            int64 // parcels settled by an ack
	DeadlineExceeded int64 // parcels abandoned: delivery deadline or run teardown
	// Receiver side.
	Delivered int64 // first copies: the parcel was handed to the wire handler
	Deduped   int64 // redundant copies suppressed by the window
	// Crash handling.
	Severed   int64 // parcels abandoned because an endpoint rank died
	LateDrops int64 // copies arriving after the run detached
	// Wire faults (from Transport.Stats), plus frames beyond the window.
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

// windowMax bounds how far past a peer's cumulative watermark the receiver
// accepts a sequence number. A frame beyond it is loss, which the sender's
// retransmission repairs once the gap below it has filled.
const windowMax = 4096

// sendEntry is the sender-side record of one unacked parcel: its frame
// fields are immutable, the others guarded by delivery.mu.
type sendEntry struct {
	dst      int
	seq      uint64
	kind     uint16
	epoch    uint32
	payload  []byte
	rt       *Runtime // holds one pending unit of it until the entry settles
	deadline time.Time
	backoff  time.Duration // guarded by delivery.mu
	timer    *time.Timer   // guarded by delivery.mu
	settled  bool          // guarded by delivery.mu
}

// peerState is the sequence space of one pair, both directions.
type peerState struct {
	next    uint64                // sender: the last sequence number allocated
	unacked map[uint64]*sendEntry // sender: parcels awaiting their ack
	floor   uint64                // receiver: every sequence number <= floor was handed over
	above   map[uint64]bool       // receiver: handed over, in (floor, floor+windowMax]
}

// admit runs one sequence number through the window and reports whether it
// is the first copy, to be handed over, and whether it is inside the window
// at all — one beyond it is loss, no ack. The watermark advances over every
// sequence number handed over without a gap below it, and never over a gap.
func (p *peerState) admit(seq uint64) (fresh, inWindow bool) {
	switch {
	case seq <= p.floor || p.above[seq]:
		return false, true
	case seq > p.floor+windowMax:
		return false, false
	}
	p.above[seq] = true
	for p.above[p.floor+1] {
		delete(p.above, p.floor+1)
		p.floor++
	}
	return true, true
}

// delivery is one rank's parcel delivery engine.
type delivery struct {
	rank int
	cfg  DeliveryConfig
	wire Transport
	gone []atomic.Bool // the cluster's dead set (Cluster.dead), read, never written

	mu       sync.Mutex
	rng      *rand.Rand     // guarded by mu
	peers    []peerState    // guarded by mu: indexed by rank
	handler  func(Frame)    // guarded by mu: the attached run's; nil between runs
	run      uint64         // guarded by mu: attachments so far; the latest is the current one
	count    TransportStats // guarded by mu: the latest run's own counters (stats adds the wire's)
	wireBase WireStats      // guarded by mu: the wire's counters at the latest attach
}

func newDelivery(rank int, wire Transport, cfg DeliveryConfig, dead []atomic.Bool) *delivery {
	peers := make([]peerState, len(dead))
	for i := range peers {
		peers[i] = peerState{unacked: map[uint64]*sendEntry{}, above: map[uint64]bool{}}
	}
	return &delivery{
		rank:  rank,
		cfg:   cfg.withDefaults(),
		wire:  wire,
		gone:  dead,
		rng:   rand.New(rand.NewSource(int64(rank)*6364136223846793005 + 1442695040888963407)),
		peers: peers,
	}
}

const allPeers = -1 // settle's every pair

// attach abandons whatever a run before it left unacked, starts every pair's
// sequence space afresh and the run's counters at zero, makes h the handler
// of the data frames that reach this rank from now on, and returns the run's
// number for its detach.
func (d *delivery) attach(h func(Frame)) uint64 {
	d.settle(allPeers, true)
	d.mu.Lock()
	defer d.mu.Unlock()
	d.count, d.wireBase = TransportStats{}, d.wire.Stats()
	d.handler = h
	d.run++
	return d.run
}

// detach ends run number run, if it is still the attached one: no frame
// reaches its handler any more, and what it never got acked is abandoned.
func (d *delivery) detach(run uint64) {
	d.mu.Lock()
	current := d.run == run && d.handler != nil
	if current {
		d.handler = nil
	}
	d.mu.Unlock()
	if current {
		d.settle(allPeers, false)
	}
}

// sever settles every parcel in flight to a rank the cluster has just
// declared dead, so retry loops aimed at the corpse end at the verdict; the
// dead set refuses later sends to it and drops its frames.
func (d *delivery) sever(rank int) { d.settle(rank, false) }

// revive restarts a re-admitted rank's pair while the cluster still lists it
// dead: its new incarnation numbers from 1, and so does this rank towards it.
func (d *delivery) revive(rank int) { d.settle(rank, true) }

// settle ends the unacked parcels to peer — their timers stopped, their
// pending units released, counted as severed, or to allPeers as abandoned at
// a run's end — and with restart starts those pairs' sequence spaces afresh,
// in the same critical section.
func (d *delivery) settle(peer int, restart bool) {
	var done []*sendEntry
	d.mu.Lock()
	for r := range d.peers {
		if peer != allPeers && r != peer {
			continue
		}
		p := &d.peers[r]
		for _, e := range p.unacked {
			e.settled = true
			done = append(done, e)
		}
		clear(p.unacked)
		if restart {
			p.next, p.floor = 0, 0
			clear(p.above)
		}
	}
	if peer == allPeers {
		d.count.DeadlineExceeded += int64(len(done))
	} else {
		d.count.Severed += int64(len(done))
	}
	d.mu.Unlock()
	for _, e := range done {
		if e.timer != nil { // nil: settled before its first transmit
			e.timer.Stop()
		}
		e.rt.finish()
	}
}

// receive is the engine's inbound edge, called under the fence's lock for
// every frame of the attached run's generation (the last run's between
// runs): acks settle sender entries, data frames go through the window, the
// fresh ones to the attached run's handler. It reports whether to ack (the
// caller does, outside its lock): every copy but one beyond the window, or
// from a dead rank — a corpse gets no replies — or from no rank at all.
func (d *delivery) receive(f Frame) bool {
	if f.Src < 0 || f.Src >= len(d.peers) || f.Src == d.rank {
		return false
	}
	if f.Ack() {
		d.onAck(f.Src, f.Seq)
		return false
	}
	if d.gone[f.Src].Load() {
		return false
	}
	d.mu.Lock()
	h, fresh, inWindow := d.handler, false, true
	if h != nil {
		fresh, inWindow = d.peers[f.Src].admit(f.Seq)
	}
	switch {
	case h == nil:
		d.count.LateDrops++
	case fresh:
		d.count.Delivered++
	case inWindow:
		d.count.Deduped++
	default:
		d.count.Dropped++ // beyond the window: loss
	}
	d.mu.Unlock()
	if fresh {
		h(f)
	}
	return inWindow
}

// ack acknowledges f (the fence's, stamp on) in f's generation: this rank
// may be in its next run by now, and the sender, still in f's, would park it.
func (d *delivery) ack(f Frame) {
	d.wire.Send(Message{Src: d.rank, Dst: f.Src, Seq: f.Seq, Epoch: f.Epoch &^ 0xffff, Ack: true})
}

// stats is the latest run's counters plus what the wire has counted since
// its attach.
func (d *delivery) stats() TransportStats {
	d.mu.Lock()
	s, b := d.count, d.wireBase
	d.mu.Unlock()
	w := d.wire.Stats()
	s.Dropped += w.Dropped - b.Dropped
	s.Duplicated = w.Duplicated - b.Duplicated
	s.WireMessages = w.Messages - b.Messages
	s.BytesOut, s.BytesIn = w.BytesOut-b.BytesOut, w.BytesIn-b.BytesIn
	s.Reconnects = w.Reconnects - b.Reconnects
	s.HandshakeFailures = w.HandshakeFailures - b.HandshakeFailures
	s.StaleFenced = w.StaleFenced - b.StaleFenced
	return s
}

// send allocates a sequence number, registers the parcel for retransmission
// (holding one pending unit of rt until it settles by ack, deadline or
// sever, so rt's Run cannot drain while deliveries are outstanding) and puts
// the first copy on the wire. A send to a dead rank is refused outright
// rather than spinning a retransmission loop at a corpse.
func (d *delivery) send(rt *Runtime, dst int, kind uint16, epoch uint32, payload []byte) {
	d.mu.Lock()
	if d.gone[dst].Load() {
		d.count.Severed++
		d.mu.Unlock()
		return
	}
	rt.pending.Add(1) // released when the entry settles
	p := &d.peers[dst]
	p.next++
	e := &sendEntry{
		dst: dst, seq: p.next, kind: kind, epoch: epoch, payload: payload, rt: rt,
		deadline: time.Now().Add(d.cfg.Deadline),
		backoff:  d.cfg.RetryBase,
	}
	p.unacked[e.seq] = e
	d.count.Sent++
	d.mu.Unlock()
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
	e.backoff = min(2*e.backoff, d.cfg.RetryMax)
	e.timer = time.AfterFunc(wait, func() { d.retry(e) })
	d.mu.Unlock()
	d.wire.Send(Message{
		Src: d.rank, Dst: e.dst, Seq: e.seq,
		Kind: e.kind, Epoch: e.epoch, Payload: e.payload,
	})
}

// retry fires when a parcel stayed unacked for one backoff period: give up
// on a dead peer (the verdict's sever raced this timer) or past the
// deadline, otherwise re-emit the identical frame. A retransmission the
// receiver had in fact already processed is harmless — the window
// suppresses it and re-acks.
func (d *delivery) retry(e *sendEntry) {
	d.mu.Lock()
	if e.settled {
		d.mu.Unlock()
		return
	}
	give := true
	switch {
	case d.gone[e.dst].Load():
		d.count.Severed++
	case time.Now().After(e.deadline):
		d.count.DeadlineExceeded++
	default:
		give = false
		d.count.Retried++
	}
	if give {
		e.settled = true
		delete(d.peers[e.dst].unacked, e.seq)
	}
	d.mu.Unlock()
	if give {
		e.rt.finish()
	} else {
		d.transmit(e)
	}
}

// onAck settles the entry on the first ack; duplicate acks (and acks for
// parcels already abandoned) are no-ops.
func (d *delivery) onAck(peer int, seq uint64) {
	d.mu.Lock()
	e := d.peers[peer].unacked[seq]
	if e == nil {
		d.mu.Unlock()
		return
	}
	e.settled = true
	delete(d.peers[peer].unacked, seq)
	d.count.Acked++
	d.mu.Unlock()
	if e.timer != nil {
		e.timer.Stop()
	}
	e.rt.finish()
}
