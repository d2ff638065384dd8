package amt

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// The parcel wire. HPX-5 assumes a reliable network (Photon/MPI underneath);
// this runtime does not: ranks in separate processes exchange encoded frames
// over a Transport that may lose, duplicate, delay or reorder them, and the
// delivery engine (delivery.go) restores at-least-once delivery; the run's
// install of a node's payload, once however often its parcel arrives, makes
// the effect exactly-once. A process hosts one locality (Runtime), so every
// parcel crosses this wire. DESIGN.md ("Failure handling") records the
// deviation from the paper's reliable-network model.

// WireStats counts what a Transport did to the frames it carried: the
// injected or genuine faults (dropped, duplicated) plus the carried traffic
// itself in encoded frame bytes.
type WireStats struct {
	Dropped    int64
	Duplicated int64
	// Messages counts messages handed to the wire (data + acks). BytesOut and
	// BytesIn are encoded frame bytes sent and received.
	Messages int64
	BytesOut int64
	BytesIn  int64
	// Reconnects counts re-established peer connections and
	// HandshakeFailures rejected connection attempts.
	Reconnects        int64
	HandshakeFailures int64
	// StaleFenced counts inbound frames of an older generation than the
	// rank's, dropped by the fence: a dead incarnation's stragglers.
	StaleFenced int64
}

// Transport is the frame wire between ranks. No implementation is assumed
// reliable: the delivery engine always runs on top.
type Transport interface {
	// Send conveys one frame toward f.Dst: a data parcel (a typed, encoded
	// Payload plus its Kind tag) or an ack (Flags: FlagAck) flowing back to
	// the sender. The wire may deliver it zero times, once, or several
	// times, possibly delayed and out of order with respect to other frames.
	Send(f Frame)
	// Stats returns the wire-level counters.
	Stats() WireStats
}

// FaultProfile configures a FaultyTransport. The zero value injects nothing;
// each field switches on one fault class.
type FaultProfile struct {
	// Seed seeds the fault RNG; equal seeds reproduce the same fault
	// sequence for the same sequence of Send calls.
	Seed int64
	// Drop is the probability a message is silently lost.
	Drop float64
	// Duplicate is the probability a message is delivered twice.
	Duplicate float64
	// Delay is a base one-way delay added to every message.
	Delay time.Duration
	// Reorder adds a uniform random delay in [0, ReorderJitter] to every
	// message, scrambling arrival order between concurrent sends.
	Reorder bool
	// ReorderJitter bounds the reorder delay (default 1ms when Reorder is
	// set).
	ReorderJitter time.Duration
	// SlowRank pauses one rank: every message to or from it is delayed by an
	// extra SlowDelay. Active only when SlowDelay > 0.
	SlowRank  int
	SlowDelay time.Duration
}

// FaultyTransport decorates a Transport with seeded drop / duplicate / delay
// / reorder / slow-rank faults, applied to each Frame before it reaches
// the inner wire. It is safe for concurrent use.
type FaultyTransport struct {
	inner Transport
	prof  FaultProfile

	mu  sync.Mutex
	rng *rand.Rand // guarded by mu

	dropped    atomic.Int64
	duplicated atomic.Int64
}

// NewFaultyTransport wraps inner with the profile's faults.
func NewFaultyTransport(inner Transport, p FaultProfile) *FaultyTransport {
	if p.Reorder && p.ReorderJitter <= 0 {
		p.ReorderJitter = time.Millisecond
	}
	return &FaultyTransport{
		inner: inner,
		prof:  p,
		rng:   rand.New(rand.NewSource(p.Seed*2654435761 + 97)),
	}
}

// Stats implements Transport: the inner wire's counters plus the injected
// faults.
func (t *FaultyTransport) Stats() WireStats {
	s := t.inner.Stats()
	s.Dropped += t.dropped.Load()
	s.Duplicated += t.duplicated.Load()
	return s
}

// Send implements Transport: draw the fate of the frame (drop, duplicate,
// or single delivery) and a delay for each surviving copy, then hand the
// copies to the inner wire.
func (t *FaultyTransport) Send(f Frame) {
	var delays [2]time.Duration
	t.mu.Lock()
	copies := 1
	switch r := t.rng.Float64(); {
	case r < t.prof.Drop:
		copies = 0
	case r < t.prof.Drop+t.prof.Duplicate:
		copies = 2
	}
	for i := 0; i < copies; i++ {
		d := t.prof.Delay
		if t.prof.SlowDelay > 0 && (f.Src == t.prof.SlowRank || f.Dst == t.prof.SlowRank) {
			d += t.prof.SlowDelay
		}
		if t.prof.Reorder {
			d += time.Duration(t.rng.Int63n(int64(t.prof.ReorderJitter) + 1))
		}
		delays[i] = d
	}
	t.mu.Unlock()

	switch copies {
	case 0:
		t.dropped.Add(1)
		return
	case 2:
		t.duplicated.Add(1)
	}
	for i := 0; i < copies; i++ {
		if d := delays[i]; d > 0 {
			time.AfterFunc(d, func() { t.inner.Send(f) })
		} else {
			t.inner.Send(f)
		}
	}
}
