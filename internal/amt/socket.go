package amt

import (
	"bufio"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// SocketTransport is the multi-process data plane: a mesh of TCP or
// unix-domain connections between ranks. Each peer gets a dedicated writer
// goroutine draining a bounded outbound queue, so sends never block the
// scheduler and consecutive frames to the same destination coalesce into
// one buffered write + flush (the per-destination batching seam from the
// executor extends down to the syscall layer). Connections are asymmetric:
// a dialed connection is write-only (its first frame is an ATTACH preamble
// carrying rank/world/stamp), an accepted connection is read-only (served
// by Cluster.serveData, which hands every frame to the generation fence).
// Dialing retries with exponential backoff and jitter; a broken or unavailable connection is never an error surfaced to
// the caller — queued and in-flight frames are simply lost, which the
// delivery layer (delivery.go) observes as wire loss and repairs with
// seq/ack/retransmit.
type SocketTransport struct {
	cl *Cluster

	mu    sync.Mutex
	peers []*peerLink // guarded by mu until setPeers, immutable after

	// The generation fence (fence, attach).
	fenceMu     sync.Mutex
	sink        func(Frame) // guarded by fenceMu: the run attached last; nil before the first
	parked      []Frame     // guarded by fenceMu: in arrival order, stamps still on
	parkedBytes int         // guarded by fenceMu: payload bytes in parked

	dropped        atomic.Int64
	messages       atomic.Int64
	bytesOut       atomic.Int64
	bytesIn        atomic.Int64
	reconnects     atomic.Int64
	handshakeFails atomic.Int64
	staleFenced    atomic.Int64 // inbound frames of an older generation, dropped by the fence

	closed atomic.Bool
	wg     sync.WaitGroup
}

// peerLink is the outbound half of one rank↔rank edge: a bounded queue of
// encoded frames drained by a single writer goroutine.
type peerLink struct {
	rank int
	addr string

	mu     sync.Mutex
	cond   *sync.Cond
	queue  [][]byte // guarded by mu
	dead   bool     // guarded by mu: rank declared dead, stop dialing
	closed bool     // guarded by mu: transport shutting down
}

// peerQueueMax bounds each peer's outbound frame queue, and the inbound park
// buffer; overflow is dropped and surfaces as wire loss.
const peerQueueMax = 8192

// parkBytesMax bounds the payload bytes the park buffer holds: several charge
// broadcasts with their first parcels at the sizes the daemon admits (8 MB).
const parkBytesMax = 64 << 20

// Retry pacing, shared by every loop of this package that waits for a peer
// to come (back) up — a worker dialing rank 0, a writer dialing a peer, an
// acceptor whose Accept failed: exponential from dialBase to dialMax, each
// sleep stretched by a uniform jitter of up to its own length, which keeps
// simultaneous retries from synchronizing against one recovering peer.
const (
	dialBase = 5 * time.Millisecond
	dialMax  = 500 * time.Millisecond
)

type backoff struct {
	rng  *rand.Rand
	step time.Duration
}

func newBackoff(seed int64) *backoff {
	return &backoff{rng: rand.New(rand.NewSource(seed)), step: dialBase}
}

// sleep waits out the current step and its jitter, then doubles the step.
func (b *backoff) sleep() {
	time.Sleep(b.step + time.Duration(b.rng.Int63n(int64(b.step)+1)))
	b.step = min(2*b.step, dialMax)
}

// reset restarts the pacing after a success.
func (b *backoff) reset() { b.step = dialBase }

// Name implements Transport.
func (t *SocketTransport) Name() string { return t.cl.cfg.Network }

// Stats implements Transport.
func (t *SocketTransport) Stats() WireStats {
	return WireStats{
		Dropped:           t.dropped.Load(),
		Messages:          t.messages.Load(),
		BytesOut:          t.bytesOut.Load(),
		BytesIn:           t.bytesIn.Load(),
		Reconnects:        t.reconnects.Load(),
		HandshakeFailures: t.handshakeFails.Load(),
		StaleFenced:       t.staleFenced.Load(),
	}
}

// fence is the generation fence every inbound data frame meets, three ways
// on the signed distance from this rank's generation to the frame's stamp —
// the sender's generation, low 16 bits, riding in the epoch's high half
// (Send). A generation counts up by one per job or re-admission and its stamp
// wraps every 65 536 of them, so within half a wrap the sign tells newer from
// older. Older: a corpse's straggler or a finished run's retransmission —
// dropped unacknowledged, it dies with its sender. Of this rank's generation
// with a run attached: delivered, the stamp stripped back off. Newer, or of
// this rank's generation with no run attached yet: the frame beat its run
// here — parked, unacknowledged, until that run attaches. A full park buffer
// drops the frame: wire loss, which the sender's delivery engine repairs like
// any other. The sink is chosen under the lock, called outside it.
func (t *SocketTransport) fence(f Frame) {
	t.fenceMu.Lock()
	var sink func(Frame)
	switch d := int16(uint16(f.Epoch>>16) - uint16(t.cl.gen.Load())); {
	case d < 0:
		t.staleFenced.Add(1)
	case d == 0 && t.sink != nil:
		sink = t.sink
	case len(t.parked) >= peerQueueMax || t.parkedBytes+len(f.Payload) > parkBytesMax:
		t.dropped.Add(1)
	default:
		t.parked = append(t.parked, f)
		t.parkedBytes += len(f.Payload)
	}
	t.fenceMu.Unlock()
	if sink != nil {
		f.Epoch &= 0xffff
		sink(f)
	}
}

// attach moves this rank to a run's generation and installs its frame sink
// (Cluster.Attach) in one critical section, then puts the parked frames
// through the fence again, in arrival order; one of a generation the rank
// skipped is stale now, and one that arrives meanwhile may overtake them.
func (t *SocketTransport) attach(gen uint32, sink func(Frame)) {
	t.fenceMu.Lock()
	t.cl.gen.Store(gen)
	t.sink = sink
	parked := t.parked
	t.parked, t.parkedBytes = nil, 0
	t.fenceMu.Unlock()
	for _, f := range parked {
		t.fence(f)
	}
}

// setPeers installs the data-plane address list at START and spawns one
// writer goroutine per remote peer.
//
//dashmm:detached writer goroutines exit when their link is closed; close() closes every link and t.wg.Wait joins them
func (t *SocketTransport) setPeers(addrs []string, dead []atomic.Bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.peers != nil {
		return
	}
	t.peers = make([]*peerLink, len(addrs))
	for r, addr := range addrs {
		if r == t.cl.cfg.Rank {
			continue
		}
		p := &peerLink{rank: r, addr: addr, dead: dead[r].Load()}
		p.cond = sync.NewCond(&p.mu)
		t.peers[r] = p
		t.wg.Add(1)
		go t.writerLoop(p)
	}
}

// Send implements Transport: encode the message as a wire frame and queue
// it on the destination's link. Unknown destinations, dead peers, a full
// queue, and a not-yet-started mesh all count as wire loss.
func (t *SocketTransport) Send(m Message) {
	f := Frame{
		Kind: m.Kind,
		Src:  m.Src,
		Dst:  m.Dst,
		// This rank's wire generation rides in the epoch's high 16 bits; the
		// receiver's fence strips it back off. The run-level epoch in the low
		// bits stays far below 2^16 (it counts death verdicts), so nothing is
		// lost to the split.
		Epoch:   (m.Epoch & 0xffff) | uint32(uint16(t.cl.gen.Load()))<<16,
		Seq:     m.Seq,
		Payload: m.Payload,
	}
	if m.Ack {
		f.Flags |= FlagAck
	}
	enc := AppendFrame(nil, &f)
	t.messages.Add(1)
	t.mu.Lock()
	var p *peerLink
	if m.Dst >= 0 && m.Dst < len(t.peers) {
		p = t.peers[m.Dst]
	}
	t.mu.Unlock()
	if p == nil {
		t.dropped.Add(1)
		return
	}
	p.mu.Lock()
	if p.dead || p.closed || len(p.queue) >= peerQueueMax {
		p.mu.Unlock()
		t.dropped.Add(1)
		return
	}
	p.queue = append(p.queue, enc)
	p.mu.Unlock()
	p.cond.Signal()
	t.bytesOut.Add(int64(len(enc)))
}

// severPeer marks a rank dead: its queue is discarded and its writer stops
// dialing the corpse and exits.
func (t *SocketTransport) severPeer(rank int) {
	t.mu.Lock()
	var p *peerLink
	if t.peers != nil && rank >= 0 && rank < len(t.peers) {
		p = t.peers[rank]
	}
	t.mu.Unlock()
	if p == nil {
		return
	}
	p.mu.Lock()
	p.dead = true
	t.dropped.Add(int64(len(p.queue)))
	p.queue = nil
	p.mu.Unlock()
	p.cond.Broadcast()
}

// revivePeer resurrects a re-admitted rank's outbound link at its new
// address: the severed link (if any) is retired and a fresh writer
// goroutine spawned. Frames queued for the corpse died with severPeer.
//
//dashmm:detached the fresh writer exits when its link is closed; close() closes every installed link and t.wg.Wait joins it
func (t *SocketTransport) revivePeer(rank int, addr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed.Load() || t.peers == nil || rank < 0 || rank >= len(t.peers) || rank == t.cl.cfg.Rank {
		return
	}
	if old := t.peers[rank]; old != nil {
		old.mu.Lock()
		old.closed = true
		t.dropped.Add(int64(len(old.queue)))
		old.queue = nil
		old.mu.Unlock()
		old.cond.Broadcast()
	}
	p := &peerLink{rank: rank, addr: addr}
	p.cond = sync.NewCond(&p.mu)
	t.peers[rank] = p
	t.wg.Add(1)
	go t.writerLoop(p)
}

// close stops every writer goroutine and joins them (called by
// Cluster.Close).
func (t *SocketTransport) close() {
	if !t.closed.CompareAndSwap(false, true) {
		return
	}
	t.mu.Lock()
	peers := t.peers
	t.mu.Unlock()
	for _, p := range peers {
		if p == nil {
			continue
		}
		p.mu.Lock()
		p.closed = true
		p.queue = nil
		p.mu.Unlock()
		p.cond.Broadcast()
	}
	t.wg.Wait()
}

// writerLoop owns one peer's connection: dial (with backoff + jitter, and
// an ATTACH preamble announcing who we are), then drain the queue in
// batches — one bufio flush per batch, so bursts of frames to the same
// destination coalesce into few syscalls. On a write error the connection
// is dropped and redialed; the batch that failed is lost (wire loss, the
// delivery layer retransmits).
func (t *SocketTransport) writerLoop(p *peerLink) {
	defer t.wg.Done()
	bo := newBackoff(int64(t.cl.cfg.Rank)*1_000_003 + int64(p.rank)*7919 + 1)
	var conn net.Conn
	var bw *bufio.Writer
	dropConn := func() {
		if conn != nil {
			conn.Close()
			conn, bw = nil, nil
		}
	}
	defer dropConn()
	everConnected := false
	for {
		p.mu.Lock()
		for len(p.queue) == 0 && !p.closed && !p.dead {
			p.cond.Wait()
		}
		if p.closed || p.dead {
			t.dropped.Add(int64(len(p.queue)))
			p.queue = nil
			p.mu.Unlock()
			return
		}
		batch := p.queue
		p.queue = nil
		p.mu.Unlock()

		if conn == nil {
			conn = t.dialPeer(p, bo)
			if conn == nil {
				// Link closed or peer declared dead while dialing: the batch
				// is lost.
				t.dropped.Add(int64(len(batch)))
				continue
			}
			if everConnected {
				t.reconnects.Add(1)
			}
			everConnected = true
			bw = bufio.NewWriterSize(conn, 256<<10)
			cfg := t.cl.cfg
			attach := &Frame{Kind: ctlAttach, Src: cfg.Rank, Dst: p.rank,
				Payload: appendHello(nil, &hello{Rank: cfg.Rank, World: cfg.World, Stamp: cfg.Stamp})}
			if _, err := bw.Write(AppendFrame(nil, attach)); err != nil {
				dropConn()
				t.dropped.Add(int64(len(batch)))
				continue
			}
		}
		ok := true
		for _, enc := range batch {
			if _, err := bw.Write(enc); err != nil {
				ok = false
				break
			}
		}
		if ok {
			ok = bw.Flush() == nil
		}
		if !ok {
			// The peer hung up or the pipe broke mid-batch: everything
			// buffered or in flight may be gone. Count the whole batch as
			// dropped and redial on the next one.
			dropConn()
			t.dropped.Add(int64(len(batch)))
		}
	}
}

// dialPeer connects to a peer, retrying on the shared backoff, and returns
// nil once the link is closed or the peer is declared dead.
func (t *SocketTransport) dialPeer(p *peerLink, bo *backoff) net.Conn {
	bo.reset()
	for {
		p.mu.Lock()
		stop := p.closed || p.dead
		p.mu.Unlock()
		if stop {
			return nil
		}
		conn, err := net.DialTimeout(t.cl.cfg.Network, p.addr, time.Second)
		if err == nil {
			return conn
		}
		bo.sleep()
	}
}
