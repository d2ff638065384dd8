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
// by Cluster.serveData: every frame meets the generation fence, then the
// cluster's delivery engine, its only receiver). Dialing retries with
// exponential backoff and jitter; a broken or unavailable connection is
// never an error surfaced to the caller — its frames are simply lost, which
// the delivery engine (delivery.go) repairs with seq/ack/retransmit.
type SocketTransport struct {
	cl *Cluster

	mu    sync.Mutex
	peers []*peerLink // guarded by mu until setPeers, immutable after

	// The generation fence (fence, attach).
	fenceMu     sync.Mutex
	ran         bool    // guarded by fenceMu: a run has attached on this rank
	parked      []Frame // guarded by fenceMu: in arrival order
	parkedBytes int     // guarded by fenceMu: payload bytes in parked

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
	closed bool     // guarded by mu: retired — the rank died or was re-admitted anew, or the transport is closing
}

// retire closes the link for good: its queue counts as dropped, and its
// writer stops dialing and exits.
func (p *peerLink) retire(t *SocketTransport) {
	p.mu.Lock()
	p.closed = true
	t.dropped.Add(int64(len(p.queue)))
	p.queue = nil
	p.mu.Unlock()
	p.cond.Broadcast()
}

// peerQueueMax bounds each peer's outbound frame queue, and the inbound park
// buffer; overflow is dropped and surfaces as wire loss.
const peerQueueMax = 8192

// parkBytesMax bounds the payload bytes the park buffer holds: the parcels
// peers send into a run before this rank has attached it. Every rank starts
// its run with the charges, so a peer may be well into its part of the DAG by
// then; past the bound a frame is wire loss, which its sender retransmits.
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
// on the signed distance from this rank's generation to the frame's Epoch —
// the sender's generation (Send). A generation counts up by one per job or
// re-admission, so the sign of the 32-bit difference tells newer from older.
// Older: a corpse's straggler or a finished run's retransmission — dropped
// unacknowledged, it dies with its sender. Of this rank's generation, once a
// run has attached: to the delivery engine, under the fence lock (so never
// to a run an attach has replaced; the ack goes out after it). Newer, or
// before any run has attached: the frame beat its run here — parked,
// unacknowledged, until that run attaches; a full park buffer drops it, wire
// loss like any other. A frame counts as received when it leaves the fence,
// towards the run it waited for.
func (t *SocketTransport) fence(f Frame) {
	t.fenceMu.Lock()
	ack := false
	n := int64(FrameHeaderSize + len(f.Payload))
	switch d := int32(f.Epoch - t.cl.gen.Load()); {
	case d < 0:
		t.bytesIn.Add(n)
		t.staleFenced.Add(1)
	case d == 0 && t.ran:
		t.bytesIn.Add(n)
		ack = t.cl.eng.receive(f)
	case len(t.parked) >= peerQueueMax || t.parkedBytes+len(f.Payload) > parkBytesMax:
		t.bytesIn.Add(n)
		t.dropped.Add(1)
	default:
		t.parked = append(t.parked, f)
		t.parkedBytes += len(f.Payload)
	}
	t.fenceMu.Unlock()
	if ack {
		t.cl.eng.ack(f)
	}
}

// attach attaches a run's handler to the delivery engine and moves this rank
// to the run's generation (Cluster.Attach) in one critical section — the
// engine first, so nothing an earlier run left unacked goes out with the new
// stamp — then puts the parked frames through the fence again, in arrival
// order. The detach it returns takes the fence lock too: no frame reaches
// the run's handler once it has returned.
func (t *SocketTransport) attach(gen uint32, h func(Frame)) (detach func()) {
	t.fenceMu.Lock()
	run := t.cl.eng.attach(h)
	t.cl.gen.Store(gen)
	t.ran = true
	parked := t.parked
	t.parked, t.parkedBytes = nil, 0
	t.fenceMu.Unlock()
	for _, f := range parked {
		t.fence(f)
	}
	return func() {
		t.fenceMu.Lock()
		defer t.fenceMu.Unlock()
		t.cl.eng.detach(run)
	}
}

// setPeers installs the data-plane address list at START and spawns one
// writer goroutine per remote peer.
//
// The writers exit when their link is closed; close() closes every link
// and t.wg.Wait joins them.
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
		p := &peerLink{rank: r, addr: addr, closed: dead[r].Load()}
		p.cond = sync.NewCond(&p.mu)
		t.peers[r] = p
		t.wg.Add(1)
		go t.writerLoop(p)
	}
}

// Send implements Transport: stamp a data frame with this rank's wire
// generation (an ack keeps the one of the frame it answers, delivery.ack),
// encode it and queue it on the destination's link. Unknown destinations,
// dead peers, a full queue, and a not-yet-started mesh all count as wire
// loss.
func (t *SocketTransport) Send(f Frame) {
	if !f.Ack() {
		f.Epoch = t.cl.gen.Load()
	}
	enc := AppendFrame(nil, &f)
	t.messages.Add(1)
	t.mu.Lock()
	var p *peerLink
	if f.Dst >= 0 && f.Dst < len(t.peers) {
		p = t.peers[f.Dst]
	}
	t.mu.Unlock()
	if p == nil {
		t.dropped.Add(1)
		return
	}
	p.mu.Lock()
	if p.closed || len(p.queue) >= peerQueueMax {
		p.mu.Unlock()
		t.dropped.Add(1)
		return
	}
	p.queue = append(p.queue, enc)
	p.mu.Unlock()
	p.cond.Signal()
	t.bytesOut.Add(int64(len(enc)))
}

// relink retires a rank's outbound link — its queue discarded, its writer
// no longer dialing — when the rank dies (addr ""), and, when it is
// re-admitted, starts a fresh link and writer at its new address.
//
// The fresh writer exits when its link is closed; close() closes every
// installed link and t.wg.Wait joins it.
func (t *SocketTransport) relink(rank int, addr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.peers == nil || rank == t.cl.cfg.Rank {
		return
	}
	if old := t.peers[rank]; old != nil {
		old.retire(t)
	}
	t.peers[rank] = nil
	if addr != "" && !t.closed.Load() {
		p := &peerLink{rank: rank, addr: addr}
		p.cond = sync.NewCond(&p.mu)
		t.peers[rank] = p
		t.wg.Add(1)
		go t.writerLoop(p)
	}
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
		if p != nil {
			p.retire(t)
		}
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
		for len(p.queue) == 0 && !p.closed {
			p.cond.Wait()
		}
		if p.closed { // retire dropped the queue
			p.mu.Unlock()
			return
		}
		batch := p.queue
		p.queue = nil
		p.mu.Unlock()

		if conn == nil {
			conn = t.dialPeer(p, bo)
			if conn == nil {
				// Link retired while dialing: the batch is lost.
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
// nil once the link is retired.
func (t *SocketTransport) dialPeer(p *peerLink, bo *backoff) net.Conn {
	bo.reset()
	for {
		p.mu.Lock()
		stop := p.closed
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
