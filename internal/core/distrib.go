package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/amt"
	"repro/internal/dag"
	"repro/internal/dist"
)

// Multi-process evaluation (DESIGN.md, "Distribution"). The model is SPMD:
// every process builds the identical Plan from the identical scenario, runs
// one amt locality whose rank is its global cluster rank, and computes the
// identical placement (dist.MinComm is deterministic), so node→rank routing
// needs no coordination. Rank 0 broadcasts the charge vector, gathers the
// completed target potentials, and owns the completion decision; data
// parcels flow point-to-point as typed payloads (wire.go) over the
// cluster's socket mesh with the amt delivery layer's seq/ack/retransmit
// underneath.
//
// Process death is the one crash model of the system (DESIGN.md, "Failure
// handling"). The DAG itself carries enough dependency information to
// re-derive everything a dead rank took with it — the insight of the
// data-driven FMM literature the paper builds on: on a death verdict —
// broadcast by rank 0 in a total order every rank observes identically —
// each survivor independently (1) fences the corpse's wire endpoints,
// (2) takes the rebuild set to be every node homed on the dead rank,
// (3) fails their ownership over deterministically (dist.Failover),
// (4) resets its newly-owned nodes, and (5) replays the in-edges of
// rebuild-set nodes whose sources it owns and has already fired. Parcels
// carry complete payload values, so an installed copy is never invalidated
// by a later death, and the per-edge applied bits make every replayed or
// duplicated contribution apply exactly once.
//
// Concurrency discipline: node fires and parcel applies run under a shared
// read lock; a death verdict takes the write lock, so recovery observes a
// quiesced executor — no node is mid-fire, no parcel mid-install. The wire
// is the bottleneck in this mode, not the lock.

// RecoveryStats reports the rank-death recovery work of one distributed
// evaluation, as seen by the reporting rank.
type RecoveryStats struct {
	// RanksKilled counts death verdicts this rank applied.
	RanksKilled int
	// NodesRebuilt counts DAG nodes this rank reset and re-executed after
	// inheriting them from a dead rank.
	NodesRebuilt int64
	// EdgesReplayed counts in-edges of rebuilt nodes this rank re-sent from
	// its already-fired nodes.
	EdgesReplayed int64
	// StaleDropped counts parcels discarded because their source node had
	// been failed over to this rank (a corpse's in-flight frame).
	StaleDropped int64
}

func (r RecoveryStats) String() string {
	return fmt.Sprintf("killed=%d rebuilt=%d replayed=%d stale=%d",
		r.RanksKilled, r.NodesRebuilt, r.EdgesReplayed, r.StaleDropped)
}

// inRef locates one in-edge of a node: source node and the index of the
// edge within the source's Out list.
type inRef struct {
	src int32
	out int32
}

// DistOptions configures one rank's participation in a distributed
// evaluation.
type DistOptions struct {
	// Workers is the scheduler thread count of this rank's locality
	// (default 1).
	Workers int
	// Seed seeds the runtime's steal and backoff RNGs.
	Seed int64
	// Gradient also computes the potential gradient at every target.
	Gradient bool
	// Delivery tunes the reliable-delivery layer (zero value = amt
	// defaults).
	Delivery amt.DeliveryConfig
	// Fault, when non-nil, wraps this rank's outbound wire in an
	// amt.FaultyTransport built from the profile (fresh per run, so the
	// seeded fault sequence is reproducible): the chaos harness's knob.
	Fault *amt.FaultProfile
	// Timeout bounds the whole evaluation; a rank that cannot finish —
	// coordinator gone, peers wedged — errors out instead of hanging
	// (default 2 minutes).
	Timeout time.Duration
	// OnProgress, when non-nil, is invoked after every locally-fired node
	// with the cumulative fire count and this rank's current owned-node
	// total. The chaos harness uses it to SIGKILL the process at a chosen
	// local progress fraction; core stays OS-agnostic.
	OnProgress func(fired, ownedTotal int)
	// Generation, when non-zero, is the wire generation this run adopts (a
	// standing cluster allocates one per job via StartJob). It is adopted
	// only after the run's frame sink is live, so frames of the new
	// generation are fenced — not acked and dropped — until this run can
	// accept them.
	Generation uint32
	// PreDead lists ranks already declared dead when the run begins, in
	// verdict order. Every rank of a job must pass the same list (the job
	// broadcast carries it), so all ranks derive the identical starting
	// placement; failover composition is order-sensitive.
	PreDead []int
	// Cancel, when non-nil, aborts the run when closed (a serve request's
	// deadline propagating into the fabric).
	Cancel <-chan struct{}
}

func (o DistOptions) withDefaults() DistOptions {
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.Timeout <= 0 {
		o.Timeout = 2 * time.Minute
	}
	if o.Delivery == (amt.DeliveryConfig{}) {
		// Socket transports operate in milliseconds, not the microseconds of
		// the in-process wire. The amt defaults (2ms retry base) retransmit
		// multi-megabyte parcel bursts while the originals still sit in the
		// socket buffers, amplifying wire traffic ~20x; pace retries at
		// round-trip scale instead.
		o.Delivery = amt.DeliveryConfig{
			RetryBase: 200 * time.Millisecond, RetryMax: 2 * time.Second,
			RetryJitter: 0.5, Deadline: 30 * time.Second,
		}
	}
	return o
}

// DistRun evaluates the plan across the cluster. Every rank of the cluster
// must call it with an identically-built plan; rank 0 supplies the charge
// vector and receives the potentials (and gradients, via the report), the
// workers pass nil charges and receive nil potentials. DistRun runs the
// cluster's join barrier itself (registering its membership callbacks
// first), so callers go NewCluster → DistRun → Close.
func DistRun(p *Plan, cl *amt.Cluster, charges []float64, opts DistOptions) ([]float64, ExecReport, error) {
	opts = opts.withDefaults()
	if cl.Rank() == 0 && len(charges) != len(p.Source.Pts) {
		return nil, ExecReport{}, fmt.Errorf("core: %d charges for %d sources", len(charges), len(p.Source.Pts))
	}
	if err := p.checkKernel(); err != nil {
		return nil, ExecReport{}, err
	}
	st, err := p.newState(make([]float64, len(p.Source.Pts)), opts.Gradient)
	if err != nil {
		return nil, ExecReport{}, err
	}
	dx, err := newDistExec(p, st, cl, opts)
	if err != nil {
		return nil, ExecReport{}, err
	}
	// The membership callbacks registered by newDistExec must not outlive
	// this run: a standing cluster keeps issuing verdicts between jobs, and
	// one landing in a discarded executor would corrupt the next run's
	// state. Cleared explicitly after rt.Run below (before the results are
	// read); the defer covers the error paths.
	defer cl.ClearRunHandlers()
	if err := cl.Start(); err != nil {
		return nil, ExecReport{}, err
	}
	if opts.Generation != 0 {
		cl.AdoptGeneration(opts.Generation)
	}
	// Replay pre-run death verdicts in their broadcast order: first the
	// job's consistent base, then anything the cluster has verdicted since
	// (idempotent — a concurrent callback for the same rank is a no-op).
	for _, r := range opts.PreDead {
		if r == cl.Rank() {
			return nil, ExecReport{}, fmt.Errorf("core: rank %d is listed dead in the job placement", r)
		}
		dx.applyDeath(r)
	}
	dx.syncDeaths()
	// Rank 0 may already be done: where this rank owns no target (a
	// single-leaf plan, more ranks than target leaves) nothing rank 0 waits
	// for comes from here, and its run-complete signal can beat this rank
	// into the run.
	if cl.TakeShutdown(cl.Generation()) {
		dx.release()
	}

	if opts.Cancel != nil {
		cancelStop := make(chan struct{})
		defer close(cancelStop)
		go func() {
			select {
			case <-opts.Cancel:
				dx.fail(fmt.Errorf("core: rank %d distributed evaluation canceled", cl.Rank()))
			case <-cancelStop:
			}
		}()
	}

	timeout := time.AfterFunc(opts.Timeout, func() {
		dx.gateMu.Lock()
		parked := len(dx.deferred)
		dx.gateMu.Unlock()
		tr := dx.rt.StatsNow().Transport
		dx.fail(fmt.Errorf("core: rank %d distributed evaluation timed out after %s "+
			"(%d/%d owned nodes fired, %d parcels parked, %d decode errors; "+
			"wire sent=%d acked=%d retried=%d expired=%d dropped=%d)",
			dx.rank, opts.Timeout, dx.firedCnt.Load(), dx.ownedTotal.Load(),
			parked, dx.decodeErrs.Load(),
			tr.Sent, tr.Acked, tr.Retried, tr.DeadlineExceeded, tr.Dropped))
	})
	defer timeout.Stop()

	start := time.Now()
	stats := dx.rt.Run(func() {
		dx.rt.Hold()
		if dx.rank == 0 {
			dx.applyCharges(charges)
			enc := encodeCharges(charges)
			for r := 1; r < dx.world; r++ {
				dx.rt.SendWire(r, wireKindCharges, 0, enc)
			}
		}
	})
	elapsed := time.Since(start)
	// Quiesce before reading any run state: the defer above runs only
	// after the return values (st.potentials()) have been evaluated, too
	// late to stop a straggling verdict from mutating st under the copy.
	cl.ClearRunHandlers()

	if err := dx.err(); err != nil {
		return nil, ExecReport{}, err
	}
	if err := p.checkKernel(); err != nil {
		return nil, ExecReport{}, err
	}
	rep := ExecReport{
		Runtime:     stats,
		Elapsed:     elapsed,
		RemoteBytes: dist.RemoteBytes(p.Graph),
		RemoteEdges: dist.RemoteEdges(p.Graph),
		Localities:  dx.world,
		Workers:     opts.Workers,
		Recovery: RecoveryStats{
			RanksKilled:   int(dx.deaths.Load()),
			NodesRebuilt:  dx.rebuilt.Load(),
			EdgesReplayed: dx.replayed.Load(),
			StaleDropped:  dx.staleDrops.Load(),
		},
	}
	if dx.rank != 0 {
		return nil, rep, nil
	}
	dx.covMu.Lock()
	done := dx.done
	covered := len(dx.covered)
	dx.covMu.Unlock()
	if !done {
		return nil, ExecReport{}, fmt.Errorf("core: run ended with %d/%d target nodes gathered", covered, len(dx.tnodes))
	}
	rep.Gradients = st.gradients()
	return st.potentials(), rep, nil
}

// distExec is the per-rank distributed executor.
type distExec struct {
	p           *Plan
	st          *state
	g           *dag.Graph
	rt          *amt.Runtime
	cl          *amt.Cluster
	rank, world int
	opts        DistOptions

	// runMu is the executor/recovery exclusion: node fires and parcel
	// applies hold it shared, a death verdict holds it exclusively.
	runMu sync.RWMutex

	locks     []sync.Mutex
	remaining []atomic.Int32
	tasks     []amt.Task
	homes     []atomic.Int32
	fired     []atomic.Bool
	edgeBase  []int32
	applied   []atomic.Bool
	inEdges   [][]inRef
	tnodes    []int32

	// ownedTotal/ownedLeft count this rank's homed nodes (grown by
	// failover); ownedLeft hitting zero triggers the result report.
	ownedTotal atomic.Int64
	ownedLeft  atomic.Int64
	firedCnt   atomic.Int64

	// chargesReady gates data-parcel processing until the charge broadcast
	// arrived; gateGen versions the defer/retry handshake (bumped per
	// verdict and at charges-ready); deferred holds parcels waiting for
	// either.
	chargesReady atomic.Bool
	gateMu       sync.Mutex
	gateGen      atomic.Int64
	deferred     []amt.Frame // guarded by gateMu

	// deadRanks mirrors the verdict sequence (identical on every rank:
	// rank 0 broadcasts in a total order).
	deadRanks []bool // guarded by runMu (write side)

	// Rank-0 gather state.
	covMu   sync.Mutex
	covered map[int32]bool // guarded by covMu
	done    bool           // guarded by covMu

	relOnce sync.Once
	errMu   sync.Mutex
	runErr  error // guarded by errMu

	deaths     atomic.Int64
	rebuilt    atomic.Int64
	replayed   atomic.Int64
	decodeErrs atomic.Int64
	staleDrops atomic.Int64
}

func newDistExec(p *Plan, st *state, cl *amt.Cluster, opts DistOptions) (*distExec, error) {
	g := p.Graph
	n := len(g.Nodes)
	dx := &distExec{
		p: p, st: st, g: g, cl: cl,
		rank: cl.Rank(), world: cl.World(), opts: opts,
		locks:     make([]sync.Mutex, n),
		remaining: make([]atomic.Int32, n),
		tasks:     make([]amt.Task, n),
		homes:     make([]atomic.Int32, n),
		fired:     make([]atomic.Bool, n),
		edgeBase:  make([]int32, n+1),
		inEdges:   make([][]inRef, n),
		deadRanks: make([]bool, cl.World()),
		covered:   make(map[int32]bool),
	}
	// SPMD placement: every rank computes the same assignment.
	dist.MinComm{}.Assign(g, dx.world)
	var edges int32
	owned := int64(0)
	for i := range g.Nodes {
		dx.edgeBase[i] = edges
		edges += int32(len(g.Nodes[i].Out))
		dx.homes[i].Store(g.Nodes[i].Locality)
		dx.remaining[i].Store(g.Nodes[i].In)
		if int(g.Nodes[i].Locality) == dx.rank {
			owned++
		}
		if g.Nodes[i].Kind == dag.NodeT {
			dx.tnodes = append(dx.tnodes, g.Nodes[i].ID)
		}
	}
	dx.edgeBase[n] = edges
	dx.applied = make([]atomic.Bool, edges)
	for i := range g.Nodes {
		for j, e := range g.Nodes[i].Out {
			dx.inEdges[e.To] = append(dx.inEdges[e.To], inRef{src: int32(i), out: int32(j)})
		}
	}
	dx.ownedTotal.Store(owned)
	dx.ownedLeft.Store(owned)
	for i := range dx.tasks {
		id := int32(i)
		dx.tasks[i] = func(*amt.Worker) { dx.runNode(id) }
	}

	var wire amt.Transport = cl.Transport()
	if opts.Fault != nil {
		wire = amt.NewFaultyTransport(wire, *opts.Fault)
	}
	dx.rt = amt.New(amt.Config{
		World:     dx.world,
		Rank:      dx.rank,
		Workers:   opts.Workers,
		Seed:      opts.Seed,
		Transport: wire,
		Delivery:  opts.Delivery,
	})
	dx.rt.OnWire(dx.onWire)
	cl.Transport().OnFrame(dx.rt.DeliverWireFrame)
	cl.OnDeath(dx.onDeath)
	cl.OnShutdown(func() { dx.release() })
	cl.OnCoordinatorLost(func(err error) { dx.fail(err) })
	return dx, nil
}

// release lets Run drain (idempotent).
func (dx *distExec) release() { dx.relOnce.Do(dx.rt.Release) }

// fail records a fatal error and unblocks Run.
func (dx *distExec) fail(err error) {
	dx.errMu.Lock()
	if dx.runErr == nil {
		dx.runErr = err
	}
	dx.errMu.Unlock()
	dx.release()
	dx.rt.Abort()
}

func (dx *distExec) err() error {
	dx.errMu.Lock()
	defer dx.errMu.Unlock()
	return dx.runErr
}

// applyCharges installs the charge vector, opens the data-parcel gate and
// seeds this rank's roots. Runs once, at setup (rank 0) or on the charge
// broadcast (workers).
func (dx *distExec) applyCharges(charges []float64) {
	dx.st.reset(charges)
	dx.chargesReady.Store(true)
	dx.gateGen.Add(1)
	loc := dx.rt.LocalLocality()
	for _, id := range dx.g.Roots() {
		if int(dx.homes[id].Load()) == dx.rank {
			loc.Spawn(dx.tasks[id])
		}
	}
	// A rank that owns nothing (tiny DAG, many ranks) completes immediately.
	if dx.ownedLeft.Load() == 0 {
		dx.runMu.RLock()
		//lint:ignore lockorder runMu's read half is held across run-side sends by design: the write half is the rank-death reset, which must only run between parcels (quiescing gate, never held by a sender's peer)
		dx.completeLocal()
		dx.runMu.RUnlock()
	}
	dx.drainDeferred()
}

// onWire is the inbound frame handler, running as a task on this rank's
// scheduler.
func (dx *distExec) onWire(w *amt.Worker, f amt.Frame) {
	switch f.Kind {
	case wireKindCharges:
		if dx.chargesReady.Load() {
			return // duplicate broadcast (retransmit): already installed
		}
		charges, err := decodeCharges(f.Payload, len(dx.p.Source.Pts))
		if err != nil {
			dx.fail(fmt.Errorf("core: rank %d: bad charge broadcast: %w", dx.rank, err))
			return
		}
		dx.applyCharges(charges)
	case wireKindParcel:
		dx.handleParcel(w, f)
	case wireKindResult:
		dx.handleResult(f)
	default:
		dx.decodeErrs.Add(1)
	}
}

// handleParcel processes one data parcel, deferring it while its
// prerequisites (the charge broadcast, a death verdict this rank has not
// yet observed) are outstanding. The defer/retry loop re-checks the gate
// generation so a verdict landing between the attempt and the enqueue
// cannot strand a frame.
func (dx *distExec) handleParcel(w *amt.Worker, f amt.Frame) {
	for {
		gen := dx.gateGen.Load()
		dx.runMu.RLock()
		ok := dx.tryParcel(w, f)
		dx.runMu.RUnlock()
		if ok {
			return
		}
		dx.gateMu.Lock()
		if dx.gateGen.Load() == gen {
			dx.deferred = append(dx.deferred, f)
			dx.gateMu.Unlock()
			return
		}
		dx.gateMu.Unlock()
	}
}

// tryParcel installs and applies one parcel; false means "not yet" — the
// frame must wait for the gate to advance. A parcel routed here names only
// targets this rank homes; seeing a foreign target means the sender has
// processed a death verdict this rank has not, so the frame waits for it.
func (dx *distExec) tryParcel(w *amt.Worker, f amt.Frame) bool {
	if !dx.chargesReady.Load() {
		return false
	}
	src, outIdx, r, err := decodeParcelHeader(dx.g, f.Payload)
	if err != nil {
		dx.decodeErrs.Add(1)
		return true // malformed: consume and drop, never wedge the gate
	}
	if int(dx.homes[src].Load()) == dx.rank {
		// Only the owner may hold the authoritative copy of a node, and we
		// are it: this parcel is a corpse's in-flight frame for a node a
		// failover just rebuilt here. Installing its payload on top of the
		// reset node would double the replayed contributions; the rebuild
		// re-derives and re-delivers everything the frame carried, so drop
		// it.
		dx.staleDrops.Add(1)
		return true
	}
	n := &dx.g.Nodes[src]
	for _, j := range outIdx {
		if int(dx.homes[n.Out[j].To].Load()) != dx.rank {
			return false
		}
	}
	dx.locks[src].Lock()
	err = dx.st.installNodePayload(n, r)
	if err == nil {
		err = r.done()
	}
	dx.locks[src].Unlock()
	if err != nil {
		dx.decodeErrs.Add(1)
		return true
	}
	for _, j := range outIdx {
		dx.deliverEdge(n, dx.edgeBase[src]+j, n.Out[j])
	}
	return true
}

// drainDeferred re-dispatches every deferred parcel after the gate
// advanced (charges arrived or a verdict was processed).
func (dx *distExec) drainDeferred() {
	dx.gateMu.Lock()
	frames := dx.deferred
	dx.deferred = nil
	dx.gateMu.Unlock()
	if len(frames) == 0 {
		return
	}
	loc := dx.rt.LocalLocality()
	for _, f := range frames {
		f := f
		loc.Spawn(func(w *amt.Worker) { dx.handleParcel(w, f) })
	}
}

// deliverEdge applies one edge into its target with exactly-once effect:
// both endpoint locks (ordered) so the source payload cannot be rewritten
// mid-read, the applied bit as the dedup filter, and the final input
// firing the target. Callers hold runMu (shared) or are the verdict path
// (exclusive).
func (dx *distExec) deliverEdge(from *dag.Node, gidx int32, e dag.Edge) {
	a, b := from.ID, e.To
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	dx.locks[lo].Lock()
	//lint:ignore lockorder two-lock protocol acquires in global index order (lo < hi after the swap above); the type-granular lock graph cannot see the ordering
	dx.locks[hi].Lock()
	if dx.applied[gidx].Load() {
		dx.locks[hi].Unlock()
		dx.locks[lo].Unlock()
		return
	}
	dx.st.apply(from, e)
	dx.applied[gidx].Store(true)
	rem := dx.remaining[b].Add(-1)
	dx.locks[hi].Unlock()
	dx.locks[lo].Unlock()
	if rem == 0 {
		dx.rt.LocalLocality().Spawn(dx.tasks[b])
	}
}

// runNode is the distributed node continuation. The progress callback runs
// after the run lock is dropped: it is caller-supplied code (the chaos
// harness closes the rank's cluster from it), and Cluster.Close joins
// readers that may be waiting for the write half.
func (dx *distExec) runNode(id int32) {
	fired := dx.fireNode(id)
	if fired > 0 && dx.opts.OnProgress != nil {
		dx.opts.OnProgress(fired, int(dx.ownedTotal.Load()))
	}
}

// fireNode processes a fired node's out-edge list — local edges apply
// directly, remote edges coalesce into one typed parcel per destination rank
// carrying the node's payload values — and returns the cumulative fire
// count (0 for a duplicate trigger).
func (dx *distExec) fireNode(id int32) int {
	dx.runMu.RLock()
	defer dx.runMu.RUnlock()
	if dx.fired[id].Swap(true) {
		return 0
	}
	n := &dx.g.Nodes[id]
	base := dx.edgeBase[id]
	var batch *remoteBatch
	for j, e := range n.Out {
		dest := dx.homes[e.To].Load()
		if int(dest) == dx.rank {
			dx.deliverEdge(n, base+int32(j), e)
			continue
		}
		if batch == nil {
			batch = remoteBatchPool.Get().(*remoteBatch)
		}
		// idx carries the out-edge index within n.Out; the receiver derives
		// the global dedup index from its own edgeBase.
		batch.addIdx(dest, e, int32(j))
	}
	if batch != nil {
		epoch := uint32(dx.deaths.Load())
		for i, dest := range batch.dests {
			pe := batch.lists[i]
			// The payload read is unsynchronized but safe: all inputs are
			// applied (the node just fired), resets are excluded by runMu,
			// and no peer installs into a node this rank homes.
			payload := dx.st.encodeParcel(n, pe.idx)
			//lint:ignore lockorder runMu's read half is held across run-side sends by design: the write half is the rank-death reset, which must only run between parcels (quiescing gate, never held by a sender's peer)
			dx.rt.SendWire(int(dest), wireKindParcel, epoch, payload)
			pe.edges = pe.edges[:0]
			pe.idx = pe.idx[:0]
			parcelEdgesPool.Put(pe)
		}
		batch.release()
	}
	if dx.ownedLeft.Add(-1) == 0 {
		//lint:ignore lockorder runMu's read half is held across run-side sends by design: the write half is the rank-death reset, which must only run between parcels (quiescing gate, never held by a sender's peer)
		dx.completeLocal()
	}
	return int(dx.firedCnt.Add(1))
}

// completeLocal reports this rank's completed targets: rank 0 marks its own
// coverage, workers ship potentials to rank 0. Re-entered after a failover
// grows the owned set back above zero and drains again; re-reports are
// idempotent. Callers hold runMu (shared).
func (dx *distExec) completeLocal() {
	var ids []int32
	for _, id := range dx.tnodes {
		if int(dx.homes[id].Load()) == dx.rank && dx.fired[id].Load() {
			ids = append(ids, id)
		}
	}
	if dx.rank == 0 {
		dx.markCovered(ids)
		return
	}
	dx.rt.SendWire(0, wireKindResult, uint32(dx.deaths.Load()), dx.st.encodeResult(ids))
}

// handleResult installs a worker's completed-targets report (rank 0).
func (dx *distExec) handleResult(f amt.Frame) {
	if dx.rank != 0 {
		dx.decodeErrs.Add(1)
		return
	}
	dx.runMu.RLock()
	defer dx.runMu.RUnlock()
	dx.covMu.Lock()
	ids, err := dx.st.installResult(f.Payload)
	dx.covMu.Unlock()
	if err != nil {
		dx.decodeErrs.Add(1)
		return
	}
	//lint:ignore lockorder runMu's read half is held across run-side sends by design: the write half is the rank-death reset, which must only run between parcels (quiescing gate, never held by a sender's peer)
	dx.markCovered(ids)
}

// markCovered records gathered target nodes and completes the run once
// every target is in: shut the cluster down and let everyone drain.
func (dx *distExec) markCovered(ids []int32) {
	dx.covMu.Lock()
	for _, id := range ids {
		dx.covered[id] = true
	}
	finished := !dx.done && len(dx.covered) == len(dx.tnodes)
	if finished {
		dx.done = true
	}
	dx.covMu.Unlock()
	if finished {
		dx.cl.Shutdown()
		dx.release()
	}
}

// onDeath is the membership callback: one death verdict, observed in the
// same order by every rank.
func (dx *distExec) onDeath(deadRank, epoch int) {
	if deadRank == dx.rank {
		// The cluster declared *us* dead (a false heartbeat verdict under
		// load): the survivors have fenced this rank and rebuilt its work,
		// so fail fast instead of running to the timeout.
		dx.fail(fmt.Errorf("core: rank %d declared dead by the cluster at epoch %d", dx.rank, epoch))
		return
	}
	// Failover composition is order-sensitive: process every verdict this
	// executor has not yet applied in the cluster's authoritative order,
	// not just the one that fired the callback. On a standing cluster a
	// verdict can predate the callback registration (it reaches the run
	// via DeadOrder replay in DistRun); whoever gets there first applies
	// it, in order, and the other path no-ops.
	dx.syncDeaths()
}

// syncDeaths applies, in verdict order, every death this executor has not
// yet processed.
func (dx *distExec) syncDeaths() {
	for _, r := range dx.cl.DeadOrder() {
		if r != dx.rank {
			dx.applyDeath(r)
		}
	}
}

// applyDeath performs one rank's failover. It runs with the executor
// quiesced (write lock), so the recovery below never races a node fire or
// parcel apply. Idempotent: a verdict already applied is a no-op.
func (dx *distExec) applyDeath(deadRank int) {
	dx.runMu.Lock()
	if dx.deadRanks[deadRank] {
		dx.runMu.Unlock()
		return
	}
	dx.rt.SeverRank(deadRank)
	g := dx.g
	dx.deadRanks[deadRank] = true
	var survivors []int32
	for r, dead := range dx.deadRanks {
		if !dead {
			survivors = append(survivors, int32(r))
		}
	}

	// Rebuild set: everything homed on the corpse. A node that already
	// discharged its role is recomputed anyway — sound (deterministic
	// values, applied-bit dedup) and decidable without any cross-rank
	// negotiation, which matters more here than a minimal set.
	inSet := make([]bool, len(g.Nodes))
	var set []int32
	for i := range g.Nodes {
		if int(dx.homes[i].Load()) == deadRank {
			inSet[i] = true
			set = append(set, int32(i))
		}
	}

	// Deterministic failover: every survivor computes the same new homes.
	plain := make([]int32, len(g.Nodes))
	for i := range plain {
		plain[i] = dx.homes[i].Load()
	}
	dist.Failover(plain, int32(deadRank), survivors)
	for i := range plain {
		dx.homes[i].Store(plain[i])
	}

	// Reset the rebuild-set nodes that are now this rank's: payload zeroed,
	// inputs re-armed, in-edge applied bits cleared so replayed
	// contributions land exactly once.
	newMine := int64(0)
	for _, id := range set {
		if int(plain[id]) != dx.rank {
			continue
		}
		n := &g.Nodes[id]
		dx.locks[id].Lock()
		dx.st.zeroNode(n)
		for _, ref := range dx.inEdges[id] {
			dx.applied[dx.edgeBase[ref.src]+ref.out].Store(false)
		}
		dx.remaining[id].Store(n.In)
		dx.locks[id].Unlock()
		dx.fired[id].Store(false)
		newMine++
	}
	if newMine > 0 {
		dx.rebuilt.Add(newMine)
		dx.ownedTotal.Add(newMine)
		dx.ownedLeft.Add(newMine)
	}

	// Replay: an in-edge of a rebuild-set node whose source this rank owns
	// and has fired will never be re-sent naturally — re-send it (coalesced
	// per source and destination). Sources inside the set re-send when they
	// re-fire; unfired sources deliver in due course. Re-seed rebuilt roots.
	type replayKey struct{ src, dest int32 }
	replays := make(map[replayKey][]int32)
	loc := dx.rt.LocalLocality()
	replayed := int64(0)
	for _, id := range set {
		for _, ref := range dx.inEdges[id] {
			if inSet[ref.src] || int(dx.homes[ref.src].Load()) != dx.rank || !dx.fired[ref.src].Load() {
				continue
			}
			replayed++
			n := &g.Nodes[ref.src]
			e := n.Out[ref.out]
			if int(plain[id]) == dx.rank {
				dx.deliverEdge(n, dx.edgeBase[ref.src]+ref.out, e)
				continue
			}
			k := replayKey{ref.src, plain[id]}
			replays[k] = append(replays[k], ref.out)
		}
		// Re-seed rebuilt roots — but only once charges are installed. Before
		// that (a PreDead replay, or a verdict racing the broadcast) the task
		// would fire on zero charges and its applied bits would then shadow
		// the real contributions; applyCharges spawns every root this rank
		// homes, from the already-updated placement. The store/load order
		// (homes then chargesReady here; chargesReady then homes there) makes
		// the handoff airtight: at least one side sees the other's write.
		if g.Nodes[id].In == 0 && int(plain[id]) == dx.rank && dx.chargesReady.Load() {
			loc.Spawn(dx.tasks[id])
		}
	}
	ep := uint32(dx.deaths.Add(1))
	for k, outIdx := range replays {
		n := &g.Nodes[k.src]
		//lint:ignore lockorder runMu's read half is held across run-side sends by design: the write half is the rank-death reset, which must only run between parcels (quiescing gate, never held by a sender's peer)
		dx.rt.SendWire(int(k.dest), wireKindParcel, ep, dx.st.encodeParcel(n, outIdx))
	}
	dx.replayed.Add(replayed)
	dx.runMu.Unlock()

	// A failover can only shrink a rank's unfinished set to empty outside
	// runNode when the rank owned nothing new; re-check completion for the
	// degenerate already-drained case (owned nothing, still owns nothing —
	// covered elsewhere) and unwedge any frames that waited for this
	// verdict.
	dx.gateGen.Add(1)
	dx.drainDeferred()
}
