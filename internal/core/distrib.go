package core

import (
	"context"
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
// needs no coordination. Every rank is handed the same charge vector the way
// it builds the same plan, so a rank's first tasks wait for nobody. Rank 0
// gathers the completed target potentials and owns the completion decision;
// data parcels flow point-to-point as typed payloads (wire.go) through the
// cluster's delivery engine (seq/ack/retransmit over its socket mesh), which
// lives as long as the cluster: a run attaches to it and detaches at its end.
//
// Process death is the one crash model of the system (DESIGN.md, "Failure
// handling"). The DAG itself carries enough dependency information to
// re-derive everything a dead rank took with it — the insight of the
// data-driven FMM literature the paper builds on: on a death verdict —
// broadcast by rank 0 in a total order every rank observes identically, its
// parcels to the corpse settled by the cluster — each survivor independently
// (1) takes the rebuild set to be every node homed on the dead rank, (2)
// fails their ownership over deterministically (dist.Failover), (3) resets
// its newly-owned nodes, and (4) replays the in-edges of rebuild-set nodes
// whose sources it owns and has already fired. Parcels
// carry complete payload values, so an installed copy is never invalidated
// by a later death, and the per-edge applied bits make every replayed or
// duplicated contribution apply exactly once.
//
// A rank runs the same executor as an in-process evaluation (exec.go): its
// runNode walks a fired node's out edges, its deliver applies them and its
// near tasks apply the S->T edges of the leaves the rank homes (the near
// field never touches the wire). What this file adds is the fabric that
// executor holds — where the placement can change under it (failover), what
// quiesces it meanwhile (runMu), what makes an edge or a near list apply
// once however often it arrives (applied bits, nearDone), what holds a parcel
// back until it can be applied (the verdict gate), and how the result gets
// home (the rank-0 gather).
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
	// its already-fired nodes (never an S->T edge: a rebuilt target leaf
	// re-runs its near task).
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
	// Gradient also computes the potential gradient at every target.
	Gradient bool
	// OnProgress, when non-nil, is invoked after every locally-fired node
	// with the cumulative fire count and this rank's current owned-node
	// total. The chaos harness uses it to SIGKILL the process at a chosen
	// local progress fraction; core stays OS-agnostic.
	OnProgress func(fired, ownedTotal int)
	// Job is the cluster job this run is one rank's side of — rank 0 passes
	// what StartJob returned, a worker what its log handed it — so every rank
	// starts from the same wire generation and the same dead ranks; the
	// generation also seeds the run's steal order. Nil on a one-shot
	// cluster: generation 0, verdicts from the head of the log.
	Job *amt.Job
}

func (o DistOptions) withDefaults() DistOptions {
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.Job == nil {
		o.Job = &amt.Job{}
	}
	return o
}

// DistRun evaluates the plan across the cluster. Every rank of the cluster
// must call it with an identically-built plan and the same charge vector;
// rank 0 receives the potentials (and gradients, via the report), the
// workers nil. A run that ctx ends before it finishes fails with an error
// wrapping ctx.Err(). DistRun runs the cluster's join barrier itself, so
// callers go NewCluster → DistRun → Close.
func DistRun(ctx context.Context, p *Plan, cl *amt.Cluster, charges []float64, opts DistOptions) (pots []float64, rep ExecReport, err error) {
	opts = opts.withDefaults()
	if len(charges) != len(p.Source.Pts) {
		return nil, ExecReport{}, fmt.Errorf("core: %d charges for %d sources", len(charges), len(p.Source.Pts))
	}
	if err := p.checkKernel(); err != nil {
		return nil, ExecReport{}, err
	}
	st, err := p.newState(opts.Gradient)
	if err != nil {
		return nil, ExecReport{}, err
	}
	// The charges are in the state from the start, so whoever seeds a near
	// task — Run's setup, a verdict below or the watcher's — need not ask.
	st.reset(charges)
	// SPMD placement: every rank computes the same assignment.
	ex := newExecutor(st, cl.World())
	fb := newFabric(ex, cl, opts)
	if err := cl.Start(); err != nil {
		return nil, ExecReport{}, err
	}
	// The job's consistent base first: every death before the job, in
	// verdict order. Everything since comes from the log.
	for _, r := range opts.Job.DeadOrder {
		if r == cl.Rank() {
			return nil, ExecReport{}, fmt.Errorf("core: rank %d is listed dead in the job placement", r)
		}
		fb.applyDeath(r)
	}
	// The run goes onto its rank in one step — wire handler, outbound stamp
	// and log cursor, all at the job's generation; frames of this run that
	// got here first were waiting at the fence and now queue in the runtime
	// until Run starts, and closing the cursor detaches the run. One watcher
	// reads the log from the job on (a one-shot cluster: from the
	// beginning), so a verdict or the coordinator going away before the run
	// got here is replayed to it in log order. It must not outlive the run —
	// a verdict landing in a discarded executor would corrupt the next run's
	// state — so it is joined after rt.Run below, before the results are
	// read; the defer covers the error paths.
	run := cl.Attach(opts.Job, fb.onFrame)
	if run.Ended() {
		// Rank 0 ended the run before it got here — it finished a DAG in
		// which this rank owns no target, or it failed: evaluating now would
		// only send parcels nobody waits for. If this rank's context has
		// ended as well, that is still the run's error.
		run.Close()
		return nil, ExecReport{Localities: fb.world, Workers: opts.Workers}, ctx.Err()
	}
	watched := make(chan struct{})
	go func() {
		defer close(watched)
		fb.watch(run, opts.Job.Gen)
	}()
	quiesce := func() {
		run.Close()
		<-watched
	}
	// Rank 0 ends a run that failed here, so the workers' runs drain; a
	// finished run is ended by markCovered.
	defer func() {
		if err != nil && fb.rank == 0 {
			cl.Shutdown()
		}
	}()
	defer quiesce()

	stop := context.AfterFunc(ctx, func() {
		fb.gateMu.Lock()
		parked := len(fb.deferred)
		fb.gateMu.Unlock()
		tr := cl.TransportStats()
		fb.fail(fmt.Errorf("core: rank %d distributed evaluation: %w "+
			"(%d/%d owned nodes fired, %d parcels parked, %d decode errors; "+
			"wire sent=%d acked=%d retried=%d expired=%d dropped=%d)",
			fb.rank, ctx.Err(), fb.firedCnt.Load(), fb.ownedTotal.Load(),
			parked, fb.decodeErrs.Load(),
			tr.Sent, tr.Acked, tr.Retried, tr.DeadlineExceeded, tr.Dropped))
	})
	defer stop()

	start := time.Now()
	stats := ex.rt.Run(fb.seed)
	elapsed := time.Since(start)
	// Quiesce before reading any run state: the defer above runs only
	// after the return values (st.potentials()) have been evaluated, too
	// late to stop a straggling verdict from mutating st under the copy.
	// The transport report is read once the run is detached, abandoned
	// parcels included.
	quiesce()
	stats.Transport = cl.TransportStats()

	if err := fb.err(); err != nil {
		return nil, ExecReport{}, err
	}
	if err := p.checkKernel(); err != nil {
		return nil, ExecReport{}, err
	}
	rep = ExecReport{
		Runtime:     stats,
		Elapsed:     elapsed,
		RemoteBytes: ex.remoteBytes,
		RemoteEdges: ex.remoteEdges,
		Localities:  fb.world,
		Workers:     opts.Workers,
		Recovery: RecoveryStats{
			RanksKilled:   int(fb.deaths.Load()),
			NodesRebuilt:  fb.rebuilt.Load(),
			EdgesReplayed: fb.replayed.Load(),
			StaleDropped:  fb.staleDrops.Load(),
		},
	}
	if fb.rank != 0 {
		return nil, rep, nil
	}
	fb.covMu.Lock()
	done := fb.done
	covered := len(fb.covered)
	fb.covMu.Unlock()
	if !done {
		return nil, ExecReport{}, fmt.Errorf("core: run ended with %d/%d target nodes gathered", covered, len(fb.tnodes))
	}
	rep.Gradients = st.gradients()
	return st.potentials(), rep, nil
}

// fabric is one rank's side of a distributed run: everything DistRun needs
// beyond the executor it shares with the in-process path. The executor owns
// the per-node locks, countdowns, continuations and the homes table; the
// fabric owns what makes those survive a wire and a death.
type fabric struct {
	ex          *executor
	cl          *amt.Cluster
	rank, world int
	opts        DistOptions

	// runMu is the executor/recovery exclusion: node fires and parcel
	// applies hold it shared, a death verdict holds it exclusively.
	runMu sync.RWMutex

	// fired fences a node against a second trigger; applied (indexed
	// edgeBase[source] + out-edge index) fences an edge against a second
	// application, under the target's lock; nearDone fences a target leaf's
	// near task against a second run. inEdges is the reverse adjacency
	// recovery walks, without the S->T edges (never delivered, replayed or
	// claimed); tnodes the target nodes rank 0 gathers.
	fired    []atomic.Bool
	edgeBase []int32
	applied  []atomic.Bool
	nearDone []atomic.Bool
	inEdges  [][]inRef
	tnodes   []int32

	// ownedTotal/ownedLeft count this rank's homed nodes (grown by
	// failover); ownedLeft hitting zero triggers the result report.
	ownedTotal atomic.Int64
	ownedLeft  atomic.Int64
	firedCnt   atomic.Int64

	// gateGen versions the defer/retry handshake of a parcel that names a
	// target this rank does not home yet (bumped per verdict); deferred holds
	// the parcels waiting for the next verdict.
	gateMu   sync.Mutex
	gateGen  atomic.Int64
	deferred []amt.Frame // guarded by gateMu

	// deadRanks mirrors the verdict sequence (identical on every rank:
	// rank 0 broadcasts in a total order).
	deadRanks []bool // guarded by runMu (write side)

	// Rank-0 gather state.
	covMu   sync.Mutex
	covered map[int32]bool // guarded by covMu
	done    bool           // guarded by covMu

	relOnce sync.Once

	// errMu/runErr hold the run's first fatal error: the end of its context,
	// a lost coordinator, this rank's own death verdict.
	errMu  sync.Mutex
	runErr error // guarded by errMu

	deaths     atomic.Int64
	rebuilt    atomic.Int64
	replayed   atomic.Int64
	decodeErrs atomic.Int64
	staleDrops atomic.Int64
}

// newFabric puts an executor on the cluster: the dedup and recovery indexes
// over its graph, a one-locality runtime at this rank, and node
// continuations that run under the fabric.
func newFabric(ex *executor, cl *amt.Cluster, opts DistOptions) *fabric {
	g := ex.g
	n := len(g.Nodes)
	fb := &fabric{
		ex: ex, cl: cl,
		rank: cl.Rank(), world: cl.World(), opts: opts,
		fired:     make([]atomic.Bool, n),
		nearDone:  make([]atomic.Bool, n),
		edgeBase:  make([]int32, n+1),
		inEdges:   make([][]inRef, n),
		deadRanks: make([]bool, cl.World()),
		covered:   make(map[int32]bool),
	}
	var edges int32
	owned := int64(0)
	for i := range g.Nodes {
		fb.edgeBase[i] = edges
		edges += int32(len(g.Nodes[i].Out))
		if int(ex.homes[i].Load()) == fb.rank {
			owned++
		}
		if g.Nodes[i].Kind == dag.NodeT {
			fb.tnodes = append(fb.tnodes, g.Nodes[i].ID)
		}
		for j, e := range g.Nodes[i].Out {
			if e.Op != dag.OpS2T {
				fb.inEdges[e.To] = append(fb.inEdges[e.To], inRef{src: int32(i), out: int32(j)})
			}
		}
		id := int32(i)
		ex.tasks[i] = func(w *amt.Worker) { fb.runNode(w, id) }
	}
	// M->L batches complete in shared memory: list 2 runs per edge here.
	ex.batchPending, ex.batchTasks = nil, nil
	fb.edgeBase[n] = edges
	fb.applied = make([]atomic.Bool, edges)
	fb.ownedTotal.Store(owned)
	fb.ownedLeft.Store(owned)

	ex.fab = fb
	ex.rt = amt.New(amt.Config{Rank: fb.rank, Workers: opts.Workers, Seed: int64(opts.Job.Gen)})
	ex.arm()
	return fb
}

// release lets Run drain (idempotent).
func (fb *fabric) release() { fb.relOnce.Do(fb.ex.rt.Release) }

// fail records the run's first fatal error and makes rt.Run return.
func (fb *fabric) fail(err error) {
	fb.errMu.Lock()
	if fb.runErr == nil {
		fb.runErr = err
	}
	fb.errMu.Unlock()
	fb.release()
	fb.ex.rt.Abort()
}

func (fb *fabric) err() error {
	fb.errMu.Lock()
	defer fb.errMu.Unlock()
	return fb.runErr
}

// seed is Run's setup on every rank: it holds the run open until it is
// released (release) and spawns this rank's near tasks and roots — their
// inputs, the charges, are here from the start. A rank that owns nothing
// (tiny DAG, many ranks) completes at once.
func (fb *fabric) seed() {
	fb.ex.rt.Hold()
	fb.runMu.RLock() // a verdict replayed from the log moves nodes here (applyDeath, the write half)
	defer fb.runMu.RUnlock()
	fb.ex.seedRoots()
	if fb.ownedLeft.Load() == 0 {
		//lint:ignore lockorder runMu's read half is held across run-side sends by design: the write half is the rank-death reset, which must only run between parcels (quiescing gate, never held by a sender's peer)
		fb.completeLocal()
	}
}

// onFrame is the run's wire handler: each parcel the delivery engine hands
// over becomes a task on this rank's scheduler (onWire).
func (fb *fabric) onFrame(f amt.Frame) {
	fb.ex.rt.Locality(fb.rank).Spawn(func(w *amt.Worker) { fb.onWire(w, f) })
}

func (fb *fabric) onWire(w *amt.Worker, f amt.Frame) {
	switch f.Kind {
	case wireKindParcel:
		fb.handleParcel(w, f)
	case wireKindResult:
		fb.handleResult(f)
	default:
		fb.decodeErrs.Add(1)
	}
}

// handleParcel processes one data parcel, deferring it while a death verdict
// this rank has not yet observed is outstanding. The defer/retry loop
// re-checks the gate generation so a verdict landing between the attempt and
// the enqueue cannot strand a frame.
func (fb *fabric) handleParcel(w *amt.Worker, f amt.Frame) {
	for {
		gen := fb.gateGen.Load()
		fb.runMu.RLock()
		ok := fb.tryParcel(w, f)
		fb.runMu.RUnlock()
		if ok {
			return
		}
		fb.gateMu.Lock()
		if fb.gateGen.Load() == gen {
			fb.deferred = append(fb.deferred, f)
			fb.gateMu.Unlock()
			return
		}
		fb.gateMu.Unlock()
	}
}

// tryParcel installs one parcel's payload and hands its edges to the
// executor's deliver; false means "not yet" — the frame must wait for the
// gate to advance. A parcel routed here names only targets this rank homes;
// seeing a foreign target means the sender has processed a death verdict
// this rank has not, so the frame waits for it.
func (fb *fabric) tryParcel(w *amt.Worker, f amt.Frame) bool {
	ex := fb.ex
	r := amt.NewCursor(f.Payload)
	src, outIdx, err := decodeParcelHeader(ex.g, &r)
	if err != nil {
		fb.decodeErrs.Add(1)
		return true // malformed: consume and drop, never wedge the gate
	}
	if int(ex.homes[src].Load()) == fb.rank {
		// Only the owner may hold the authoritative copy of a node, and we
		// are it: this parcel is a corpse's in-flight frame for a node a
		// failover just rebuilt here. Installing its payload on top of the
		// reset node would double the replayed contributions; the rebuild
		// re-derives and re-delivers everything the frame carried, so drop
		// it.
		fb.staleDrops.Add(1)
		return true
	}
	n := &ex.g.Nodes[src]
	for _, j := range outIdx {
		if int(ex.homes[n.Out[j].To].Load()) != fb.rank {
			return false
		}
	}
	ex.locks[src].Lock()
	ex.st.installNodePayload(n, &r)
	ex.locks[src].Unlock()
	if r.Done() != nil {
		fb.decodeErrs.Add(1)
		return true
	}
	for _, j := range outIdx {
		ex.deliver(w, n, j)
	}
	return true
}

// drainDeferred re-dispatches every deferred parcel after a verdict was
// processed.
func (fb *fabric) drainDeferred() {
	fb.gateMu.Lock()
	frames := fb.deferred
	fb.deferred = nil
	fb.gateMu.Unlock()
	if len(frames) == 0 {
		return
	}
	loc := fb.ex.rt.Locality(fb.rank)
	for _, f := range frames {
		f := f
		loc.Spawn(func(w *amt.Worker) { fb.handleParcel(w, f) })
	}
}

// claim is the exactly-once filter of executor.deliver and the run's only
// duplicate filter: the delivery engine hands over every copy it receives,
// and a failed-over source re-sends under fresh sequence numbers. It takes
// both endpoint locks of the edge (ordered), so the source payload cannot be
// rewritten mid-read, and tests the edge's applied bit. True leaves both
// locks held and the bit set — the caller applies the edge and unlocks;
// false (already applied) leaves nothing held. Callers hold runMu (shared)
// or are the verdict path (exclusive).
//
//dashmm:noalloc
func (fb *fabric) claim(src, dst, out int32) bool {
	ex := fb.ex
	lo, hi := min(src, dst), max(src, dst)
	ex.locks[lo].Lock()
	//lint:ignore lockorder two-lock protocol acquires in global index order (lo < hi by construction); the type-granular lock graph cannot see the ordering
	ex.locks[hi].Lock()
	if fb.applied[fb.edgeBase[src]+out].Swap(true) {
		ex.locks[hi].Unlock()
		ex.locks[lo].Unlock()
		return false
	}
	return true
}

// runNode is the node continuation under a fabric: the executor's out-edge
// walk with failover excluded and a duplicate trigger fenced, then the node
// counts towards this rank's completion. The progress callback runs after
// the run lock is dropped: it is caller-supplied code (the chaos harness
// closes the rank's cluster from it) and a verdict may be waiting for the
// write half.
func (fb *fabric) runNode(w *amt.Worker, id int32) {
	fb.runMu.RLock()
	fired := 0
	if !fb.fired[id].Swap(true) {
		//lint:ignore lockorder runMu's read half is held across run-side sends by design: the write half is the rank-death reset, which must only run between parcels (quiescing gate, never held by a sender's peer)
		fb.ex.runNode(w, id)
		if fb.ownedLeft.Add(-1) == 0 {
			//lint:ignore lockorder runMu's read half is held across run-side sends by design: the write half is the rank-death reset, which must only run between parcels (quiescing gate, never held by a sender's peer)
			fb.completeLocal()
		}
		fired = int(fb.firedCnt.Add(1))
	}
	fb.runMu.RUnlock()
	if fired > 0 && fb.opts.OnProgress != nil {
		fb.opts.OnProgress(fired, int(fb.ownedTotal.Load()))
	}
}

// completeLocal reports this rank's completed targets: rank 0 marks its own
// coverage, workers ship potentials to rank 0. Re-entered after a failover
// grows the owned set back above zero and drains again; re-reports are
// idempotent. Callers hold runMu (shared).
func (fb *fabric) completeLocal() {
	var ids []int32
	for _, id := range fb.tnodes {
		if int(fb.ex.homes[id].Load()) == fb.rank && fb.fired[id].Load() {
			ids = append(ids, id)
		}
	}
	if fb.rank == 0 {
		fb.markCovered(ids)
		return
	}
	fb.cl.Send(fb.ex.rt, 0, wireKindResult, uint32(fb.deaths.Load()), fb.ex.st.encodeResult(ids))
}

// handleResult installs a worker's completed-targets report (rank 0); a
// repeated copy installs the same values again and covers nothing new. The
// install writes target potentials, so it excludes a failover reset (runMu)
// and another report's install (covMu); the completion decision after it
// needs neither.
func (fb *fabric) handleResult(f amt.Frame) {
	if fb.rank != 0 {
		fb.decodeErrs.Add(1)
		return
	}
	fb.runMu.RLock()
	fb.covMu.Lock()
	ids, err := fb.ex.st.installResult(f.Payload, len(fb.tnodes))
	fb.covMu.Unlock()
	fb.runMu.RUnlock()
	if err != nil {
		fb.decodeErrs.Add(1)
		return
	}
	fb.markCovered(ids)
}

// markCovered records gathered target nodes and completes the run once
// every target is in: shut the cluster down and let everyone drain.
func (fb *fabric) markCovered(ids []int32) {
	fb.covMu.Lock()
	for _, id := range ids {
		fb.covered[id] = true
	}
	finished := !fb.done && len(fb.covered) == len(fb.tnodes)
	if finished {
		fb.done = true
	}
	fb.covMu.Unlock()
	if finished {
		fb.cl.Shutdown()
		fb.release()
	}
}

// watch is the run's one consumer of the cluster's event log: death
// verdicts fail their ranks over in log order — the same order on every
// rank, which failover composition depends on — the run-complete signal of
// this run's generation lets it drain, and losing the coordinator (or the
// cluster) fails it.
func (fb *fabric) watch(sub *amt.Subscription, gen uint32) {
	for {
		ev, ok := sub.Next()
		if !ok {
			return
		}
		switch {
		case ev.Kind == amt.EventDead && ev.Rank == fb.rank:
			// The cluster declared *us* dead (a false heartbeat verdict under
			// load): the survivors have fenced this rank and rebuilt its work,
			// so fail fast instead of running to the timeout.
			fb.fail(fmt.Errorf("core: rank %d declared dead by the cluster at epoch %d", fb.rank, ev.Epoch))
		case ev.Kind == amt.EventDead:
			fb.applyDeath(ev.Rank)
		case ev.Kind == amt.EventRunDone && ev.Gen == gen:
			fb.release()
		case ev.Kind == amt.EventCoordLost:
			fb.fail(ev.Err)
		}
	}
}

// applyDeath performs one rank's failover. It runs with the executor
// quiesced (write lock), so the recovery below never races a node fire or
// parcel apply. Idempotent: a verdict already applied is a no-op.
func (fb *fabric) applyDeath(deadRank int) {
	fb.runMu.Lock()
	if fb.deadRanks[deadRank] {
		fb.runMu.Unlock()
		return
	}
	ex := fb.ex
	g := ex.g
	fb.deadRanks[deadRank] = true
	var survivors []int32
	for r, dead := range fb.deadRanks {
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
		if int(ex.homes[i].Load()) == deadRank {
			inSet[i] = true
			set = append(set, int32(i))
		}
	}

	// Deterministic failover: every survivor computes the same new homes.
	plain := make([]int32, len(g.Nodes))
	for i := range plain {
		plain[i] = ex.homes[i].Load()
	}
	dist.Failover(plain, int32(deadRank), survivors)
	for i := range plain {
		ex.homes[i].Store(plain[i])
	}

	// Reset the rebuild-set nodes that are now this rank's: payload zeroed,
	// inputs re-armed, in-edge applied bits cleared so replayed
	// contributions land exactly once and a leaf's near task may run again.
	newMine := int64(0)
	for _, id := range set {
		if int(plain[id]) != fb.rank {
			continue
		}
		n := &g.Nodes[id]
		ex.locks[id].Lock()
		ex.st.zeroNode(n)
		for _, ref := range fb.inEdges[id] {
			fb.applied[fb.edgeBase[ref.src]+ref.out].Store(false)
		}
		ex.remaining[id].Store(n.In)
		ex.locks[id].Unlock()
		fb.fired[id].Store(false)
		fb.nearDone[id].Store(false)
		newMine++
	}
	if newMine > 0 {
		fb.rebuilt.Add(newMine)
		fb.ownedTotal.Add(newMine)
		fb.ownedLeft.Add(newMine)
	}

	// Replay: an in-edge of a rebuild-set node whose source this rank owns
	// and has fired will never be re-sent naturally — re-send it (coalesced
	// per source and destination). Sources inside the set re-send when they
	// re-fire; unfired sources deliver in due course.
	type replayKey struct{ src, dest int32 }
	replays := make(map[replayKey][]int32)
	replayed := int64(0)
	for _, id := range set {
		for _, ref := range fb.inEdges[id] {
			if inSet[ref.src] || int(plain[ref.src]) != fb.rank || !fb.fired[ref.src].Load() {
				continue
			}
			replayed++
			if int(plain[id]) == fb.rank {
				ex.deliver(nil, &g.Nodes[ref.src], ref.out)
				continue
			}
			k := replayKey{ref.src, plain[id]}
			replays[k] = append(replays[k], ref.out)
		}
	}
	// Re-seed the rebuilt roots and leaves' near tasks along with everything
	// else this rank seeds (what already ran is fenced: fired, nearDone).
	ex.seedRoots()
	ep := uint32(fb.deaths.Add(1))
	for k, outIdx := range replays {
		//lint:ignore lockorder runMu's read half is held across run-side sends by design: the write half is the rank-death reset, which must only run between parcels (quiescing gate, never held by a sender's peer)
		fb.cl.Send(ex.rt, int(k.dest), wireKindParcel, ep, ex.st.encodeParcel(&g.Nodes[k.src], outIdx))
	}
	fb.replayed.Add(replayed)
	fb.runMu.Unlock()

	// Unwedge the frames that waited for this verdict. Completion needs no
	// re-check here: a failover that hands this rank nodes raises ownedLeft,
	// and runNode reports once the last of them fires; one that hands it none
	// leaves its report as it was.
	fb.gateGen.Add(1)
	fb.drainDeferred()
}
