package amt

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Rank bootstrap and membership for multi-process localities (DESIGN.md,
// "Distribution"). The control plane is a star: rank 0 listens at a
// well-known address, every worker rank joins with a handshake (rank id,
// world size, build/version stamp, its own data-plane listen address) and
// keeps the join connection open as its control channel. Rank 0 rejects a
// bad join with a reason and, once all ranks are present, broadcasts the
// first membership frame (the START) with the full peer address list. From
// then on the data plane is a mesh of SocketTransport connections
// (socket.go), while heartbeats flow worker→rank 0: rank 0 is the single
// membership authority and failure detector, declaring a silent rank dead
// and broadcasting the verdict, with an epoch number, to every survivor. A
// worker that loses its control connection treats the coordinator as dead.
// A standing cluster (the serve worker pool) re-admits a respawned worker's
// REJOIN between runs, at a fresh wire generation, with a membership frame
// to every live rank, the joiner included.
//
// The cluster owns the job (Job): rank 0 allocates one at a time (StartJob)
// and every worker's control loop rebuilds the same value from the job frame
// — verdicts, memberships and jobs share one ordered link, so a worker's
// dead-rank order at that frame is rank 0's at the allocation. Until the job
// ends, re-admission is deferred: membership never shifts under a placement.
// A run puts itself on its rank with one call (Attach), and every data frame
// meets a three-way generation fence at the receiver (socket.go, fence): a
// frame cannot reach a rank too early, only too late.
//
// Parcels travel one delivery engine per rank (delivery.go), built with the
// cluster over its data plane and living as long as it: a run attaches its
// wire handler with its job and detaches when its cursor closes. The
// engine's dead set is the cluster's: a verdict settles the dead rank's
// parcels in the critical section that records the death, and a
// re-admission only clears the flag — no sequence space restarts.
//
// Between the control plane and whoever acts on it there is one mechanism:
// an ordered event log per rank (Event, Subscribe). A verdict, a
// re-admission, a job, a run-complete signal, the loss of the coordinator —
// each is appended in the same critical section of Cluster.mu that makes it
// true, and on rank 0 that section also queues the frame that tells the
// workers, so the order of those sections is the order of rank 0's log, of
// every control connection's byte stream and of every worker's log.
// Consumers read through a cursor of their own and may attach late: an
// event that precedes its consumer is replayed, not parked in a slot of its
// own. Frames leave rank 0 through a bounded queue and a writer goroutine
// per connection: no socket write happens under a Cluster mutex, and one
// wedged worker delays nobody but itself.

// Cluster-internal control frame kinds. Application payload kinds must stay
// below ctlBase.
const (
	ctlBase     uint16 = 0xff00
	ctlHello    uint16 = 0xff01 // worker → rank0: join request (payload: hello)
	ctlWelcome  uint16 = 0xff02 // rank0 → worker: join accepted
	ctlReject   uint16 = 0xff03 // rank0 → worker: join refused (payload: reason)
	ctlBeat     uint16 = 0xff05 // worker → rank0: heartbeat
	ctlDead     uint16 = 0xff06 // rank0 → workers: death verdict (frame dst = the dead rank, frame epoch = verdict epoch)
	ctlShutdown uint16 = 0xff07 // rank0 → workers: run complete, drain (frame epoch = the run's wire generation)
	ctlAttach   uint16 = 0xff08 // data-plane connection preamble (payload: hello)
	ctlRejoin   uint16 = 0xff09 // worker → rank0: re-admission request after a respawn (payload: hello)
	ctlGen      uint16 = 0xff0a // rank0 → workers: membership (payload: membership) — START is the first, each re-admission sends the next
	ctlJob      uint16 = 0xff0b // rank0 → workers: application job broadcast (frame epoch = wire generation)
	ctlExit     uint16 = 0xff0c // rank0 → workers: pool teardown, exit the process
)

// retryPrefix marks a REJECT reason as transient: the joiner should back
// off and retry the handshake instead of giving up.
const retryPrefix = "retry: "

// FailureDetectorConfig tunes the heartbeat failure detector: every worker
// rank emits a heartbeat each Interval, and rank 0 declares a rank dead once
// MissedBeats consecutive ticks of its own Interval monitor saw no new one
// (see monitorLoop). The classic fixed-threshold detector is complete but
// only eventually accurate (a tight threshold misjudges a slow rank); a
// false verdict is made harmless by fencing: the survivors sever the suspect
// and fail its work over, and the suspect fails fast on its own verdict.
type FailureDetectorConfig struct {
	// Interval between heartbeats.
	Interval time.Duration
	// MissedBeats before a silent rank is declared dead.
	MissedBeats int
}

// ClusterConfig configures one rank's view of a multi-process cluster.
type ClusterConfig struct {
	// Rank is this process's locality id in [0, World); rank 0 coordinates.
	Rank, World int
	// Network is "tcp" or "unix".
	Network string
	// Addr is rank 0's well-known address: the bind address on rank 0, the
	// join target on workers.
	Addr string
	// Stamp is the build/version + scenario stamp; every rank must present
	// an identical stamp or the join is rejected.
	Stamp string
	// Heartbeat tunes the membership detector (zero value = 25ms interval, 8
	// missed beats).
	Heartbeat FailureDetectorConfig
	// JoinTimeout bounds the bootstrap: workers dialing rank 0 and rank 0
	// awaiting the full roster (default 30s).
	JoinTimeout time.Duration
	// Rejoin makes a worker re-enter an already-started cluster (a
	// respawned rank): the handshake is a REJOIN, admitted only between
	// runs and only for a rank with a standing death verdict.
	Rejoin bool
	// Delivery tunes the delivery engine (zero value = a socket mesh's
	// pacing, see DeliveryConfig).
	Delivery DeliveryConfig
	// Fault, when non-nil, puts an amt.FaultyTransport built from the profile
	// between the delivery engine and the sockets, for the cluster's lifetime:
	// the chaos harness's knob.
	Fault *FaultProfile
}

func (c ClusterConfig) withDefaults() ClusterConfig {
	if c.Heartbeat.Interval <= 0 {
		c.Heartbeat.Interval = 25 * time.Millisecond
	}
	if c.Heartbeat.MissedBeats <= 0 {
		c.Heartbeat.MissedBeats = 8
	}
	if c.JoinTimeout <= 0 {
		c.JoinTimeout = 30 * time.Second
	}
	return c
}

// EventKind names what an Event reports.
type EventKind uint8

const (
	// EventDead is a death verdict for Rank, the Epoch-th of this cluster.
	// Rank 0 logs it when it issues the verdict, every rank the verdict
	// reaches when it arrives — the suspect included.
	EventDead EventKind = iota + 1
	// EventRejoin is the re-admission of a respawned Rank at wire
	// generation Gen: logged by rank 0 when it admits the rank and by every
	// survivor when the membership that revives it arrives.
	EventRejoin
	// EventJob is an application job broadcast (StartJob): Job, of wire
	// generation Gen.
	EventJob
	// EventRunDone is rank 0's run-complete signal (Shutdown) for the run of
	// wire generation Gen.
	EventRunDone
	// EventCoordLost ends this rank's part in the cluster: the control
	// connection to rank 0 broke, or the cluster was closed; Err says which.
	EventCoordLost
	// EventExit is the pool teardown (BroadcastExit): exit the process.
	EventExit
)

// Event is one entry of a rank's membership log.
type Event struct {
	Kind  EventKind
	Rank  int    // EventDead, EventRejoin
	Epoch int    // EventDead
	Gen   uint32 // EventRejoin, EventJob, EventRunDone
	Job   *Job   // EventJob; shared between subscribers, read-only
	Err   error  // EventCoordLost
}

// Job is one run's identity on the cluster, the same value on every rank:
// rank 0 allocates it (StartJob), a worker's control loop rebuilds it from
// the job frame. The zero Job is the only run of a one-shot cluster, which
// starts none: generation 0, nobody dead beforehand.
type Job struct {
	// Gen is the job's wire generation, fresh per job. It doubles as the
	// run's seed wherever every rank wants the same one.
	Gen uint32
	// DeadOrder lists the ranks dead when the job was placed: the base of
	// every rank's placement, which leaves them out. It is kept in verdict
	// order, but the order is not significant. Verdicts since are in the log
	// behind the job.
	DeadOrder []int
	// Payload is the application's job description.
	Payload []byte

	c *Cluster
}

// Subscription is one consumer's cursor into a cluster's event log.
type Subscription struct {
	c      *Cluster
	next   int    // guarded by Cluster.mu: log position of the next event to hand out
	detach func() // detaches the run that attached with it (Attach); nil for a plain cursor
	ended  bool   // the run-complete signal of the cursor's generation was in the log at its start
}

// Subscribe opens a cursor at the oldest retained event, for a consumer that
// lives as long as the cluster: replay is how an event reaches a late one.
func (c *Cluster) Subscribe() *Subscription { return c.subscribe(0) }

// Attach puts a run on this rank, in one step: h is handed each parcel of
// the job's generation once — those that got here first were parked and are
// handed over now, in arrival order — outbound frames are stamped with the
// generation, and the returned cursor reads the log from the job's event on;
// closing it detaches the run. There is no other way to set a rank's
// generation or its wire handler, so no order to get wrong between them. h
// runs on the connection readers' goroutines (the caller's for parked
// frames) under the fence's lock: it must not block or call the cluster.
func (c *Cluster) Attach(j *Job, h func(Frame)) *Subscription {
	s := c.subscribe(j.Gen)
	s.detach = c.tp.attach(j.Gen, h)
	return s
}

// Ended reports whether the run that attached with this cursor had already
// been ended when it attached: its run-complete signal was in the log. Rank 0
// finished or failed the run without this rank, so there is nothing left to
// evaluate here.
func (s *Subscription) Ended() bool { return s.ended }

// Send sends one typed encoded parcel of the attached run to a remote rank.
// It holds one pending unit of rt, the run's runtime, and its payload (not
// to be reused) until it is acked, abandoned or its destination dies.
func (c *Cluster) Send(rt *Runtime, dst int, kind uint16, epoch uint32, payload []byte) {
	rt.parcelsSent.Add(1)
	rt.parcelBytes.Add(int64(len(payload)))
	c.eng.send(rt, dst, kind, epoch, payload)
}

// TransportStats reports the parcel transport of the run attached last,
// from its Attach on.
func (c *Cluster) TransportStats() TransportStats { return c.eng.stats() }

// subscribe opens a cursor at the job of generation gen, or, when the log
// holds none (a later job displaced it; no job has generation 0), at the
// oldest retained event: for a run started by the consumer that was handed
// its job the event after it, since that consumer's cursor kept the rest.
func (c *Cluster) subscribe(gen uint32) *Subscription {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := &Subscription{c: c, next: c.logBase}
	isJob := func(ev Event) bool { return ev.Kind == EventJob && ev.Gen == gen }
	if i := slices.IndexFunc(c.log, isJob); i >= 0 {
		s.next = c.logBase + i
	}
	s.ended = slices.ContainsFunc(c.log[s.next-c.logBase:], func(ev Event) bool { return ev.Kind == EventRunDone && ev.Gen == gen })
	c.subs[s] = struct{}{}
	return s
}

// Next blocks until the log holds an event this subscription has not been
// handed and returns it; false once the subscription is closed, or the
// cluster is and the log is read to its end.
func (s *Subscription) Next() (Event, bool) {
	c := s.c
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		_, live := c.subs[s]
		if i := s.next - c.logBase; live && i < len(c.log) {
			s.next++
			return c.log[i], true
		}
		if !live || c.closed {
			return Event{}, false
		}
		c.cond.Wait()
	}
}

// Close detaches the cursor: no Next hands out an event once Close has
// returned, and the log stops retaining events on its behalf. A consumer
// that must also have finished with the event it was handed last joins its
// own goroutine. The cursor of an Attach detaches its run as well, unless a
// later Attach has replaced it.
func (s *Subscription) Close() {
	c := s.c
	c.mu.Lock()
	delete(c.subs, s)
	c.cond.Broadcast()
	c.mu.Unlock()
	if s.detach != nil {
		s.detach()
	}
}

// publish appends one event to the log, wakes the subscribers and drops
// what nobody can ask for any more: a run attaches at its job and every
// live cursor reads forward, so the log is retained from the latest job or
// the slowest live cursor, whichever is older — a standing pool's log stays
// a few events long however many jobs it has run.
//
//dashmm:locked Cluster.mu — documented precondition: an event is appended in the critical section that made it true.
func (c *Cluster) publish(ev Event) {
	if ev.Kind == EventJob {
		c.jobPos = c.logBase + len(c.log)
	}
	c.log = append(c.log, ev)
	floor := c.jobPos
	for s := range c.subs {
		floor = min(floor, s.next)
	}
	if k := floor - c.logBase; k > 0 {
		n := copy(c.log, c.log[k:])
		clear(c.log[n:])
		c.log = c.log[:n]
		c.logBase = floor
	}
	c.cond.Broadcast()
}

// ctlQueueMax bounds a control link's outbound queue. Control traffic is two
// frames per worker and evaluation plus the odd verdict, and a writer that
// gets to run drains them in microseconds; a worker this many frames behind
// is not slow, it is gone.
const ctlQueueMax = 256

// ctlLink is rank 0's outbound half of one worker's control connection: a
// bounded queue of encoded frames and the one goroutine that writes them.
// A full queue or a failed write closes the link, and a closed link stays
// closed: the worker's heartbeats are no longer credited, and silence then
// does what silence does — a verdict.
type ctlLink struct {
	conn net.Conn
	q    chan []byte   // encoded frames (shared between links, read-only), ctlQueueMax deep
	shut chan struct{} // closed when the link is
	once sync.Once
}

func (l *ctlLink) enqueue(enc []byte) {
	select {
	case l.q <- enc:
	default:
		l.close()
	}
}

func (l *ctlLink) close() { l.once.Do(func() { close(l.shut) }) }

func (l *ctlLink) open() bool {
	select {
	case <-l.shut:
		return false
	default:
		return true
	}
}

// writeLoop writes the queue to the connection until the link closes, then
// hangs up between frames, and the write half only: the worker reads whole
// frames up to a clean end of stream (closing outright while its unread
// heartbeats sit in our receive queue would reset the connection under what
// it has not read yet). The reader (serveConn) closes the rest once the
// worker has hung up too.
func (l *ctlLink) writeLoop(wg *sync.WaitGroup) {
	defer wg.Done()
	for l.open() {
		select {
		case <-l.shut:
		case enc := <-l.q:
			if _, err := l.conn.Write(enc); err != nil {
				l.close() // part of the frame may be on the wire: nothing may follow it
			}
		}
	}
	if half, ok := l.conn.(interface{ CloseWrite() error }); ok {
		half.CloseWrite()
	} else {
		l.conn.Close()
	}
}

// Cluster is one rank's membership endpoint.
type Cluster struct {
	cfg ClusterConfig
	ln  net.Listener
	tp  *SocketTransport
	eng *delivery // the rank's delivery engine over tp, the transport's only receiver

	// mu is the membership lock: state, log and (rank 0) the link queues
	// change together under it, and nothing under it blocks.
	mu        sync.Mutex
	cond      *sync.Cond                 // on mu: the log grew, the roster grew, started, running or closed flipped
	started   bool                       // guarded by mu: first membership sent/adopted
	running   bool                       // guarded by mu; rank0: a job is in flight — the next one waits, rejoins are deferred
	closed    bool                       // guarded by mu: Close ran
	links     map[int]*ctlLink           // guarded by mu; rank0: control link per joined worker
	peerAddrs []string                   // guarded by mu: data-plane listen address per rank
	deadOrder []int                      // guarded by mu: dead ranks in verdict order
	genCount  uint32                     // guarded by mu; rank0: last allocated wire generation
	log       []Event                    // guarded by mu: retained events, oldest first
	logBase   int                        // guarded by mu: log position of log[0]
	jobPos    int                        // guarded by mu: log position of the latest EventJob
	subs      map[*Subscription]struct{} // guarded by mu: live cursors
	conns     map[net.Conn]struct{}      // guarded by mu: accepted connections, for Close to unblock their readers

	ctl net.Conn // worker side: the join connection to rank 0; after the handshake beatLoop is its only writer

	dead     []atomic.Bool
	epoch    atomic.Int32  // death verdicts issued/processed
	gen      atomic.Uint32 // this rank's wire generation: a membership's, then each attached run's (written by tp.attach under its fence lock)
	lastBeat []atomic.Int64

	quit chan struct{}
	wg   sync.WaitGroup
}

// NewCluster binds this rank's listener and, on workers, joins rank 0's
// control star (blocking until the join is accepted or rejected). Rank 0
// returns immediately after binding; call Start to run the join barrier.
//
//dashmm:detached acceptLoop exits when Close closes the listener and quit; c.wg.Wait joins it
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	cfg = cfg.withDefaults()
	if cfg.World < 2 {
		return nil, fmt.Errorf("amt: cluster needs World >= 2, got %d", cfg.World)
	}
	if cfg.Rank < 0 || cfg.Rank >= cfg.World {
		return nil, fmt.Errorf("amt: rank %d out of range [0,%d)", cfg.Rank, cfg.World)
	}
	if cfg.Network != "tcp" && cfg.Network != "unix" {
		return nil, fmt.Errorf("amt: unsupported network %q (want tcp or unix)", cfg.Network)
	}
	bind := cfg.Addr
	if cfg.Rank != 0 {
		bind = workerBindAddr(cfg)
	}
	ln, err := net.Listen(cfg.Network, bind)
	if err != nil {
		return nil, fmt.Errorf("amt: rank %d listen %s %s: %w", cfg.Rank, cfg.Network, bind, err)
	}
	addrs := make([]string, cfg.World)
	addrs[0] = cfg.Addr
	addrs[cfg.Rank] = ln.Addr().String()
	c := &Cluster{
		cfg:       cfg,
		ln:        ln,
		links:     map[int]*ctlLink{},
		peerAddrs: addrs,
		subs:      map[*Subscription]struct{}{},
		dead:      make([]atomic.Bool, cfg.World),
		lastBeat:  make([]atomic.Int64, cfg.World),
		quit:      make(chan struct{}),
		conns:     map[net.Conn]struct{}{},
	}
	c.cond = sync.NewCond(&c.mu)
	c.tp = &SocketTransport{cl: c}
	var wire Transport = c.tp
	if cfg.Fault != nil {
		wire = NewFaultyTransport(wire, *cfg.Fault)
	}
	c.eng = newDelivery(cfg.Rank, wire, cfg.Delivery, c.dead)
	c.wg.Add(1)
	go c.acceptLoop()
	if cfg.Rank != 0 {
		if err := c.join(); err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

// bindSerial uniquifies unix socket paths when several clusters share one
// process (tests, in-process simulations); pid alone would collide.
var bindSerial atomic.Int64

// workerBindAddr picks a worker's data-plane listen address: an ephemeral
// TCP port, or a per-rank socket file next to rank 0's for unix.
func workerBindAddr(cfg ClusterConfig) string {
	if cfg.Network == "tcp" {
		return "127.0.0.1:0"
	}
	dir := filepath.Dir(cfg.Addr)
	return filepath.Join(dir, fmt.Sprintf("dashmm-r%d-%d-%d.sock", cfg.Rank, os.Getpid(), bindSerial.Add(1)))
}

// Generation returns this rank's wire generation: its latest membership's
// or, since, that of the run attached last. The transport stamps it into
// every outbound data frame and fences inbound frames against it.
func (c *Cluster) Generation() uint32 { return c.gen.Load() }

// LiveWorkers counts worker ranks not currently declared dead.
func (c *Cluster) LiveWorkers() int {
	n := 0
	for r := 1; r < c.cfg.World; r++ {
		if !c.dead[r].Load() {
			n++
		}
	}
	return n
}

// Rank returns this process's rank.
func (c *Cluster) Rank() int { return c.cfg.Rank }

// World returns the cluster size.
func (c *Cluster) World() int { return c.cfg.World }

// broadcast queues one frame on the link of every live worker (rank 0) and
// returns its encoding.
//
//dashmm:locked Cluster.mu — documented precondition: the caller's critical section is the frame's place in the total order.
func (c *Cluster) broadcast(f *Frame) []byte {
	enc := AppendFrame(nil, f)
	for r, l := range c.links {
		if !c.dead[r].Load() {
			l.enqueue(enc)
		}
	}
	return enc
}

// broadcastMembership queues rank 0's current view on every live link.
//
//dashmm:locked Cluster.mu — documented precondition: called from the critical section that changed the membership.
func (c *Cluster) broadcastMembership() {
	m := membership{Gen: c.gen.Load(), Epoch: uint32(c.epoch.Load()), Addrs: c.peerAddrs, DeadOrder: c.deadOrder}
	c.broadcast(&Frame{Kind: ctlGen, Payload: appendMembership(nil, &m)})
}

// StartJob starts the cluster's next job (rank 0 only): it waits until the
// previous one has ended, then, in one critical section, allocates a fresh
// wire generation, snapshots the dead-rank order, queues the job frame for
// every live worker and logs the job — the snapshot is the membership at the
// job's place in the log, here and on every worker. Until the job's End,
// re-admissions are deferred. If ctx ends first, before or during the wait,
// StartJob returns ctx.Err() and neither logs a job nor queues a frame. (On
// a closed cluster it does not wait: the run will find the closure in the
// log and fail at once.)
func (c *Cluster) StartJob(ctx context.Context, payload []byte) (*Job, error) {
	stop := context.AfterFunc(ctx, func() {
		c.mu.Lock()
		c.cond.Broadcast()
		c.mu.Unlock()
	})
	defer stop()
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.running && !c.closed && ctx.Err() == nil {
		c.cond.Wait()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	c.running = true
	c.genCount++
	j := &Job{Gen: c.genCount, DeadOrder: slices.Clone(c.deadOrder), Payload: payload, c: c}
	c.broadcast(&Frame{Kind: ctlJob, Epoch: j.Gen, Payload: payload})
	c.publish(Event{Kind: EventJob, Gen: j.Gen, Job: j})
	return j, nil
}

// End ends the job (rank 0 only; call it once): the next StartJob may
// proceed, and so may a re-admission.
func (j *Job) End() {
	j.c.mu.Lock()
	j.c.running = false
	j.c.cond.Broadcast()
	j.c.mu.Unlock()
}

// join dials rank 0 and runs the worker side of the handshake; the accepted
// connection becomes the control channel.
//
//dashmm:detached workerControlLoop exits when the control conn closes and beatLoop on c.quit; Close closes both and c.wg.Wait joins
func (c *Cluster) join() error {
	deadline := time.Now().Add(c.cfg.JoinTimeout)
	// N respawned workers racing back to a recovering coordinator must not
	// stampede it in lockstep: the seed separates ranks and incarnations.
	bo := newBackoff(int64(c.cfg.Rank)*1_000_003 + int64(os.Getpid())*7919 + 1)
	kind := ctlHello
	if c.cfg.Rejoin {
		kind = ctlRejoin
	}
	h := hello{Rank: c.cfg.Rank, World: c.cfg.World, Stamp: c.cfg.Stamp, Addr: c.ln.Addr().String()}
	request := AppendFrame(nil, &Frame{Kind: kind, Src: c.cfg.Rank, Payload: appendHello(nil, &h)})
	lastErr := errors.New("join timeout")
	for {
		if time.Now().After(deadline) {
			return fmt.Errorf("amt: rank %d join %s: %w", c.cfg.Rank, c.cfg.Addr, lastErr)
		}
		conn, err := net.DialTimeout(c.cfg.Network, c.cfg.Addr, time.Second)
		if err != nil {
			lastErr = err
			bo.sleep()
			continue
		}
		conn.SetDeadline(time.Now().Add(c.cfg.JoinTimeout))
		if _, err := conn.Write(request); err != nil {
			conn.Close()
			return fmt.Errorf("amt: rank %d hello: %w", c.cfg.Rank, err)
		}
		br := bufio.NewReader(conn)
		resp, err := ReadFrame(br)
		if err != nil {
			conn.Close()
			return fmt.Errorf("amt: rank %d awaiting welcome: %w", c.cfg.Rank, err)
		}
		switch resp.Kind {
		case ctlWelcome:
		case ctlReject:
			conn.Close()
			reason := string(resp.Payload)
			// A transient rejection (a job is mid-flight) is retried in
			// place instead of burning a whole process respawn.
			if c.cfg.Rejoin && strings.HasPrefix(reason, retryPrefix) {
				lastErr = fmt.Errorf("rejected: %s", reason)
				bo.sleep()
				continue
			}
			return fmt.Errorf("amt: rank %d join rejected: %s", c.cfg.Rank, reason)
		default:
			conn.Close()
			return fmt.Errorf("amt: rank %d unexpected join response kind %#x", c.cfg.Rank, resp.Kind)
		}
		conn.SetDeadline(time.Time{})
		c.ctl = conn
		c.wg.Add(2)
		go c.workerControlLoop(br)
		go c.beatLoop()
		return nil
	}
}

// adoptMembership installs a membership frame from rank 0 (workers): the
// wire generation, verdict epoch, peer addresses and dead-rank order. The
// first one is the START. A rank listed dead is severed; a rank no longer
// listed (a re-admitted respawn) is revived at its new address and logged.
func (c *Cluster) adoptMembership(payload []byte) error {
	m, err := decodeMembership(payload, c.cfg.World)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.started = true
	c.peerAddrs, c.deadOrder = m.Addrs, m.DeadOrder
	c.epoch.Store(int32(m.Epoch))
	c.gen.Store(m.Gen)
	for r := range c.dead {
		switch {
		case r == c.cfg.Rank:
		case slices.Contains(m.DeadOrder, r):
			if c.dead[r].CompareAndSwap(false, true) {
				c.sever(r)
			}
		case c.dead[r].Load():
			c.revive(r, m.Addrs[r])
			c.publish(Event{Kind: EventRejoin, Rank: r, Gen: m.Gen})
		}
	}
	c.tp.setPeers(m.Addrs, c.dead[:])
	c.cond.Broadcast()
	return nil
}

// lost returns what ended this rank's part in the cluster, once the log has
// come to that: nothing is appended behind an EventCoordLost but another.
//
//dashmm:locked Cluster.mu — documented precondition: reads the log.
func (c *Cluster) lost() error {
	if n := len(c.log); n > 0 && c.log[n-1].Kind == EventCoordLost {
		return c.log[n-1].Err
	}
	return nil
}

// Start runs the join barrier: rank 0 waits for the full roster and
// broadcasts the first membership with the peer address list; workers wait
// for it — or for the loss of the coordinator, which is then the error.
// After Start returns successfully the data plane is usable. On a cluster
// that already started (a standing pool running many jobs, a rejoined
// worker) Start returns at once.
//
//dashmm:detached monitorLoop exits on c.quit; Close closes quit and c.wg.Wait joins
func (c *Cluster) Start() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	late := false
	if !c.started {
		wake := time.AfterFunc(c.cfg.JoinTimeout, func() {
			c.mu.Lock()
			late = true
			c.cond.Broadcast()
			c.mu.Unlock()
		})
		defer wake.Stop()
	}
	short := func() bool { return c.cfg.Rank != 0 || len(c.links) < c.cfg.World-1 }
	for !c.started && !late && c.lost() == nil && short() {
		c.cond.Wait()
	}
	switch {
	case c.closed:
		return errClusterClosed
	case c.started:
		return nil
	case c.lost() != nil:
		return c.lost()
	case c.cfg.Rank != 0:
		return fmt.Errorf("amt: rank %d timed out waiting for START", c.cfg.Rank)
	case short():
		return fmt.Errorf("amt: join barrier timed out with %d/%d workers", len(c.links), c.cfg.World-1)
	}
	// Rank 0 releases the barrier. Every rank's silence is counted from
	// here, not from its join.
	c.started = true
	now := time.Now().UnixNano()
	for r := range c.lastBeat {
		c.lastBeat[r].Store(now)
	}
	c.tp.setPeers(c.peerAddrs, c.dead[:])
	c.broadcastMembership()
	c.wg.Add(1)
	go c.monitorLoop()
	return nil
}

// acceptLoop serves the rank's listener: first frame classifies the
// connection as a control join (rank 0 only) or a data-plane attach.
//
//dashmm:detached joined by Close: close(c.quit) unblocks the loop via listener Close and c.wg.Wait joins it
func (c *Cluster) acceptLoop() {
	defer c.wg.Done()
	bo := newBackoff(int64(c.cfg.Rank) + 1)
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			select {
			case <-c.quit:
				return
			default:
			}
			// Transient accept error: keep serving unless shutting down.
			bo.sleep()
			continue
		}
		bo.reset()
		c.wg.Add(1)
		go c.serveConn(conn)
	}
}

// serveConn classifies and serves one inbound connection, and closes it
// when whoever served it is done.
func (c *Cluster) serveConn(conn net.Conn) {
	defer c.wg.Done()
	defer conn.Close()
	if !c.trackConn(conn) {
		return
	}
	defer c.untrackConn(conn)
	// A peer that connects and never completes its preamble — or never
	// reads its rejection — must not wedge the acceptor's bookkeeping:
	// bound the handshake, both ways.
	conn.SetDeadline(time.Now().Add(c.cfg.JoinTimeout))
	br := bufio.NewReaderSize(conn, 64<<10)
	first, err := ReadFrame(br)
	switch {
	case err != nil:
		c.tp.handshakeFails.Add(1)
	case first.Kind == ctlHello || first.Kind == ctlRejoin:
		c.serveJoin(conn, br, first)
	case first.Kind == ctlAttach:
		c.serveData(conn, br, first)
	default:
		c.tp.handshakeFails.Add(1)
	}
}

// serveJoin handles one worker's join (or rejoin) request on rank 0:
// validate the preamble, admit the rank, then read its heartbeats for as
// long as the link lives.
//
//dashmm:detached the link's writer exits when the link closes: the reader below closes it on its way out, Close closes every link, and c.wg.Wait joins
func (c *Cluster) serveJoin(conn net.Conn, br *bufio.Reader, first Frame) {
	h, err := decodeHello(first.Payload)
	var reason string
	var l *ctlLink
	switch {
	case c.cfg.Rank != 0:
		reason = "join sent to a non-coordinator rank"
	case err != nil:
		reason = "malformed hello: " + err.Error()
	case h.World != c.cfg.World:
		reason = fmt.Sprintf("world size mismatch: coordinator runs %d, joiner built for %d", c.cfg.World, h.World)
	case h.Stamp != c.cfg.Stamp:
		reason = fmt.Sprintf("version stamp mismatch: coordinator %q, joiner %q", c.cfg.Stamp, h.Stamp)
	case h.Rank <= 0 || h.Rank >= c.cfg.World:
		reason = fmt.Sprintf("rank %d out of range [1,%d)", h.Rank, c.cfg.World)
	default:
		l = &ctlLink{conn: conn, q: make(chan []byte, ctlQueueMax), shut: make(chan struct{})}
		reason = c.admit(h.Rank, h.Addr, l, first.Kind == ctlRejoin)
	}
	if reason != "" {
		c.tp.handshakeFails.Add(1)
		conn.Write(AppendFrame(nil, &Frame{Kind: ctlReject, Payload: []byte(reason)}))
		return
	}
	conn.SetDeadline(time.Time{})
	c.wg.Add(1)
	go l.writeLoop(&c.wg)
	// Heartbeats in, for as long as the worker keeps the connection up;
	// silence is the monitor's to judge, and a closed link is silent. A
	// broken connection is not an immediate verdict either — the monitor
	// owns those — but the link is done.
	defer l.close()
	for {
		f, err := ReadFrame(br)
		if err != nil {
			return
		}
		if f.Kind == ctlBeat && l.open() {
			c.lastBeat[h.Rank].Store(time.Now().UnixNano())
		}
	}
}

// admit installs a validated joiner's link: the whole effect of a join on
// the membership, in one critical section. It returns the reason when the
// join is refused. Before START the roster simply fills in (a respawn
// racing the initial bootstrap lands here too and is indistinguishable from
// a first join); after it only a REJOIN of a rank with a standing verdict
// is admitted, between jobs: the rank gets a fresh wire generation — frames
// of the corpse's incarnation carry an older one and are fenced — and the
// new membership goes to every live rank, the joiner included, before any
// job placed against it can.
func (c *Cluster) admit(rank int, addr string, l *ctlLink, rejoin bool) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case !c.started:
		if c.links[rank] != nil {
			return fmt.Sprintf("rank %d already joined", rank)
		}
	case !rejoin:
		// A plain join after START — including a crashed rank's restart
		// that predates re-admission — would run against a stale peer list.
		return "run already started: late joiners are not admitted"
	case !c.dead[rank].Load():
		// Either a duplicate process, or the old incarnation's silence has
		// not yet crossed the verdict threshold. The latter resolves itself.
		return fmt.Sprintf(retryPrefix+"rank %d is still a live member (no death verdict yet)", rank)
	case c.running:
		// Membership must not shift under a placed job.
		return retryPrefix + "job in flight: re-admission is deferred between runs"
	}
	if old := c.links[rank]; old != nil {
		old.close()
		old.conn.Close() // the corpse's control conn, if still half-open
	}
	c.links[rank] = l
	c.peerAddrs[rank] = addr
	l.enqueue(AppendFrame(nil, &Frame{Kind: ctlWelcome}))
	// Fresh heartbeat before the dead flag clears, or the monitor would
	// re-verdict the rank off the corpse's stale timestamp.
	c.lastBeat[rank].Store(time.Now().UnixNano())
	if c.started {
		c.genCount++
		c.gen.Store(c.genCount)
		c.deadOrder = slices.DeleteFunc(c.deadOrder, func(r int) bool { return r == rank })
		c.revive(rank, addr)
		c.broadcastMembership()
		c.publish(Event{Kind: EventRejoin, Rank: rank, Gen: c.genCount})
	}
	c.cond.Broadcast()
	return ""
}

// serveData validates a data-plane attach and runs its read loop, handing
// decoded frames to the transport's fence.
func (c *Cluster) serveData(conn net.Conn, br *bufio.Reader, attach Frame) {
	h, err := decodeHello(attach.Payload)
	if err != nil || h.World != c.cfg.World || h.Stamp != c.cfg.Stamp ||
		h.Rank < 0 || h.Rank >= c.cfg.World || c.dead[h.Rank].Load() {
		c.tp.handshakeFails.Add(1)
		return
	}
	conn.SetDeadline(time.Time{})
	for {
		f, err := ReadFrame(br)
		if err != nil {
			// EOF, truncation or corruption: drop the connection. Whatever
			// was in flight is wire loss; the peer redials and the delivery
			// layer retransmits.
			return
		}
		c.tp.fence(f)
	}
}

// workerControlLoop is the worker-side control reader: it turns rank 0's
// frames into membership changes and log entries, in arrival order. A read
// error — a broken connection or a frame that does not decode — means the
// coordinator is out of reach.
//
//dashmm:detached exits when the control conn closes; Close closes it and c.wg.Wait joins
func (c *Cluster) workerControlLoop(br *bufio.Reader) {
	defer c.wg.Done()
	for {
		f, err := ReadFrame(br)
		if err == nil && f.Kind == ctlGen {
			err = c.adoptMembership(f.Payload)
		}
		if err != nil {
			// Rank 0 must lose this rank too: hang up, so its beats stop
			// with the connection and the monitor gets its silence.
			c.ctl.Close()
			c.mu.Lock()
			if !c.closed {
				c.publish(Event{Kind: EventCoordLost, Err: fmt.Errorf("amt: control connection to rank 0 lost: %w", err)})
			}
			c.mu.Unlock()
			return
		}
		c.mu.Lock()
		switch f.Kind {
		case ctlDead:
			if f.Dst < c.cfg.World {
				c.markDead(f.Dst, int(f.Epoch))
			}
		case ctlJob:
			// deadOrder at this frame is rank 0's at the allocation: every
			// verdict and membership before it on the link has been applied,
			// none behind it has.
			j := &Job{Gen: f.Epoch, DeadOrder: slices.Clone(c.deadOrder), Payload: f.Payload, c: c}
			c.publish(Event{Kind: EventJob, Gen: j.Gen, Job: j})
		case ctlShutdown:
			c.publish(Event{Kind: EventRunDone, Gen: f.Epoch})
		case ctlExit:
			c.publish(Event{Kind: EventExit, Gen: f.Epoch})
		}
		c.mu.Unlock()
	}
}

// beatLoop emits the worker's heartbeats to rank 0.
//
//dashmm:detached ticker goroutine exits on c.quit; Close closes quit and c.wg.Wait joins
func (c *Cluster) beatLoop() {
	defer c.wg.Done()
	beat := AppendFrame(nil, &Frame{Kind: ctlBeat, Src: c.cfg.Rank})
	tick := time.NewTicker(c.cfg.Heartbeat.Interval)
	defer tick.Stop()
	for {
		select {
		case <-c.quit:
			return
		case <-tick.C:
			if _, err := c.ctl.Write(beat); err != nil {
				return // the control conn is gone; workerControlLoop reports it
			}
		}
	}
}

// monitorLoop is rank 0's membership detector: a rank from which no new
// heartbeat arrived on MissedBeats consecutive ticks of the monitor's own
// Interval ticker is declared dead. Silence is counted in ticks the monitor
// lived through, not read off the wall clock: when this process is starved
// or paused, the readers that would have taken the waiting beats off their
// sockets are not running either, and a late tick must count as one tick,
// not as the workers' silence for however long it was late.
//
//dashmm:detached exits on c.quit; Close closes quit and c.wg.Wait joins
func (c *Cluster) monitorLoop() {
	defer c.wg.Done()
	hb := c.cfg.Heartbeat
	tick := time.NewTicker(hb.Interval)
	defer tick.Stop()
	seen := make([]int64, c.cfg.World) // lastBeat as of the previous tick
	missed := make([]int, c.cfg.World) // consecutive ticks it did not move
	for {
		select {
		case <-c.quit:
			return
		case <-tick.C:
			for r := 1; r < c.cfg.World; r++ {
				if c.dead[r].Load() {
					continue
				}
				if b := c.lastBeat[r].Load(); b != seen[r] {
					seen[r], missed[r] = b, 0
				} else if missed[r]++; missed[r] >= hb.MissedBeats {
					c.DeclareDead(r)
				}
			}
		}
	}
}

// markDead records one death verdict on this rank — flag, epoch, verdict
// order, transport fence, log — and reports whether it was news.
//
//dashmm:locked Cluster.mu — documented precondition: rank 0 issues and a worker applies a verdict inside one critical section.
func (c *Cluster) markDead(rank, epoch int) bool {
	if !c.dead[rank].CompareAndSwap(false, true) {
		return false
	}
	c.epoch.Store(int32(epoch))
	c.deadOrder = append(c.deadOrder, rank)
	c.sever(rank)
	c.publish(Event{Kind: EventDead, Rank: rank, Epoch: epoch})
	return true
}

// sever fences a rank just marked dead: its outbound link is retired and
// every parcel in flight to it settles.
//
//dashmm:locked Cluster.mu — documented precondition: in the critical section that marks the rank dead.
func (c *Cluster) sever(rank int) {
	c.tp.relink(rank, "")
	c.eng.sever(rank)
}

// revive re-admits a rank marked dead: a fresh outbound link at its new
// address while the dead flag still keeps parcels off it, then the flag
// cleared.
//
//dashmm:locked Cluster.mu — documented precondition: in the critical section that re-admits the rank.
func (c *Cluster) revive(rank int, addr string) {
	c.tp.relink(rank, addr)
	c.dead[rank].Store(false)
}

// DeclareDead issues a death verdict for a rank (rank 0 only; also the
// test hook for injected deaths): mark, fence the transport, log, and queue
// the verdict with its epoch for every surviving worker and for the suspect
// itself. It returns once the verdict is in the log and the queues, not
// once anyone has acted on it. Idempotent.
func (c *Cluster) DeclareDead(rank int) {
	if c.cfg.Rank != 0 || rank <= 0 || rank >= c.cfg.World {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.markDead(rank, int(c.epoch.Load())+1) {
		return
	}
	verdict := c.broadcast(&Frame{Kind: ctlDead, Dst: rank, Epoch: uint32(c.epoch.Load())})
	if suspect := c.links[rank]; suspect != nil {
		// Best effort: a corpse's connection is gone, but a live suspect (a
		// false verdict) must learn it has been fenced — it fails its run
		// at once instead of computing on, unheard, to its timeout.
		suspect.enqueue(verdict)
	}
}

// Shutdown broadcasts the run-complete signal to every live worker (rank 0
// only), stamped with the wire generation of the run it ends.
func (c *Cluster) Shutdown() { c.signal(ctlShutdown, EventRunDone) }

// BroadcastExit tells every live worker to exit its process: the pool is
// being torn down (rank 0 only).
func (c *Cluster) BroadcastExit() { c.signal(ctlExit, EventExit) }

func (c *Cluster) signal(kind uint16, ev EventKind) {
	if c.cfg.Rank != 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return // nothing is appended behind the closure's EventCoordLost (lost)
	}
	c.broadcast(&Frame{Kind: kind, Epoch: c.gen.Load()})
	c.publish(Event{Kind: ev, Gen: c.gen.Load()})
}

var errClusterClosed = errors.New("amt: cluster closed")

// Close tears the cluster down: listener, control connections, data-plane
// peers, and every cluster goroutine is stopped and joined. A run still in
// flight on this rank finds the closure in the log and fails at once —
// without a cluster it can neither finish nor be told it cannot.
func (c *Cluster) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.publish(Event{Kind: EventCoordLost, Err: errClusterClosed})
	for _, l := range c.links {
		l.close()
	}
	// Unblock every accepted-connection reader, and a link's writer parked
	// in a wedged worker's socket: a peer that never hangs up (or is this
	// same process, in tests) must not stall the teardown.
	for conn := range c.conns {
		conn.Close()
	}
	c.mu.Unlock()
	close(c.quit)
	c.ln.Close()
	if c.ctl != nil {
		c.ctl.Close()
	}
	c.tp.close()
	c.wg.Wait()
	return nil
}

// trackConn registers an accepted connection for teardown; false means the
// cluster is already closing and the conn must not be served.
func (c *Cluster) trackConn(conn net.Conn) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.closed {
		c.conns[conn] = struct{}{}
	}
	return !c.closed
}

func (c *Cluster) untrackConn(conn net.Conn) {
	c.mu.Lock()
	delete(c.conns, conn)
	c.mu.Unlock()
}
