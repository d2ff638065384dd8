package amt

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Reliable parcel delivery between ranks: one engine per rank, built with
// its Cluster and living as long as it (Cluster.Send, Cluster.Attach). Per
// peer, sequence numbers, acks, and retransmission with exponential backoff
// + jitter under a delivery deadline. The sender retains each payload until
// it settles, so a retransmission re-emits the identical frame. The contract
// is at-least-once: every copy from a live rank reaches the attached run's
// handler and is acked, duplicates included. Exactly-once effect is the
// run's own business: a copy is byte for byte the frame first sent, so the
// run keeps the first and drops the rest (core installs a node's payload,
// and applies its edges, once). A broken socket, a full queue and an
// injected fault are all the same thing to this engine: loss.
//
// A sequence number only pairs an ack with the entry it settles, so it
// counts up for the engine's lifetime: no run, verdict or re-admission
// restarts it, and an ack of an abandoned parcel cannot settle a later one.
// A run attaches its wire handler and detaches when it ends. Between runs a
// late copy is acked — its sender may be waiting for that ack to finish —
// counted as LateDrops, and dropped. The engine has no membership of its
// own: it reads the cluster's dead set, and the cluster's verdict settles a
// dead rank's parcels (sever) in the critical section that records the
// death.

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
	Delivered int64 // copies handed to the wire handler, duplicates included
	// Crash handling.
	Severed   int64 // parcels abandoned because an endpoint rank died
	LateDrops int64 // copies arriving after the run detached
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

// sendEntry is the sender-side record of one unacked parcel: dst, seq, kind
// and deadline are immutable, the others guarded by delivery.mu.
type sendEntry struct {
	dst      int
	seq      uint64
	kind     uint16
	payload  []byte   // guarded by delivery.mu: nil once settled
	rt       *Runtime // guarded by delivery.mu: holds one pending unit of it until the entry settles
	deadline time.Time
	backoff  time.Duration // guarded by delivery.mu
	timer    *time.Timer   // guarded by delivery.mu
	settled  bool          // guarded by delivery.mu
}

// peerState is the sender's side of one pair; the receiver keeps none.
type peerState struct {
	next    uint64                // the last sequence number allocated
	unacked map[uint64]*sendEntry // parcels awaiting their ack
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
		peers[i] = peerState{unacked: map[uint64]*sendEntry{}}
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

// attach abandons whatever a run before it left unacked, starts the run's
// counters at zero, makes h the handler of the data frames that reach this
// rank from now on, and returns the run's number for its detach.
func (d *delivery) attach(h func(Frame)) uint64 {
	d.settle(allPeers)
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
		d.settle(allPeers)
	}
}

// sever settles every parcel in flight to a rank the cluster has just
// declared dead, so retry loops aimed at the corpse end at the verdict; the
// dead set refuses later sends to it and drops its frames.
func (d *delivery) sever(rank int) { d.settle(rank) }

// release settles e: unregistered, its timer stopped, its payload and runtime
// dropped — a stopped timer can stay in Go's timer heap until its deadline,
// and must pin neither — and the runtime returned, for the caller to finish
// its pending unit outside the lock.
//
//dashmm:locked delivery.mu — settle, retry and onAck call it inside their critical sections.
func (d *delivery) release(e *sendEntry) *Runtime {
	delete(d.peers[e.dst].unacked, e.seq)
	e.settled = true
	if e.timer != nil { // nil: settled before its first transmit
		e.timer.Stop()
	}
	rt := e.rt
	e.rt, e.payload = nil, nil
	return rt
}

// settle ends the unacked parcels to peer — their timers stopped, their
// pending units released — counted as severed, or to allPeers as abandoned
// at a run's end.
func (d *delivery) settle(peer int) {
	var done []*Runtime
	d.mu.Lock()
	for r := range d.peers {
		if peer != allPeers && r != peer {
			continue
		}
		p := &d.peers[r]
		for _, e := range p.unacked {
			done = append(done, d.release(e))
		}
	}
	if peer == allPeers {
		d.count.DeadlineExceeded += int64(len(done))
	} else {
		d.count.Severed += int64(len(done))
	}
	d.mu.Unlock()
	for _, rt := range done {
		rt.finish()
	}
}

// receive is the engine's inbound edge, called under the fence's lock for
// every frame of the attached run's generation (the last run's between
// runs): acks settle sender entries, every data copy goes to the attached
// run's handler. It reports whether to ack (the caller does, outside its
// lock): every data copy from a live rank — a corpse gets no replies — and
// none from no rank at all.
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
	h := d.handler
	if h != nil {
		d.count.Delivered++
	} else {
		d.count.LateDrops++
	}
	d.mu.Unlock()
	if h != nil {
		h(f)
	}
	return true
}

// ack acknowledges f in f's generation: this rank may be in its next run by
// now, and the sender, still in f's, would park it.
func (d *delivery) ack(f Frame) {
	d.wire.Send(Frame{Flags: FlagAck, Src: d.rank, Dst: f.Src, Seq: f.Seq, Epoch: f.Epoch})
}

// stats is the latest run's counters plus what the wire has counted since
// its attach.
func (d *delivery) stats() TransportStats {
	d.mu.Lock()
	s, b := d.count, d.wireBase
	d.mu.Unlock()
	w := d.wire.Stats()
	s.Dropped = w.Dropped - b.Dropped
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
func (d *delivery) send(rt *Runtime, dst int, kind uint16, payload []byte) {
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
		dst: dst, seq: p.next, kind: kind, payload: payload, rt: rt,
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
	payload := e.payload
	d.mu.Unlock()
	d.wire.Send(Frame{
		Kind: e.kind, Src: d.rank, Dst: e.dst, Seq: e.seq, Payload: payload,
	})
}

// retry fires when a parcel stayed unacked for one backoff period: give up
// on a dead peer (the verdict's sever raced this timer) or past the
// deadline, otherwise re-emit the identical frame. A retransmission the
// receiver had in fact already processed is handed over again and re-acked;
// the run's install drops it.
func (d *delivery) retry(e *sendEntry) {
	d.mu.Lock()
	if e.settled {
		d.mu.Unlock()
		return
	}
	var rt *Runtime
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
		rt = d.release(e)
	}
	d.mu.Unlock()
	if give {
		rt.finish()
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
	rt := d.release(e)
	d.count.Acked++
	d.mu.Unlock()
	rt.finish()
}
