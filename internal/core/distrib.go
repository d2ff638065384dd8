package core

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/amt"
	"repro/internal/dag"
)

// Multi-process evaluation (DESIGN.md, "Distribution"). The model is SPMD:
// every process builds the identical Plan from the identical scenario, runs
// one amt locality whose rank is its global cluster rank, and computes the
// identical placement over the ranks alive when its job was placed
// (Plan.place; dist.MinComm is deterministic), so node→rank routing needs no
// coordination and never changes during a run. Every rank is handed the same
// charge vector the way it builds the same plan, so a rank's first tasks wait
// for nobody. Rank 0 gathers the completed target potentials and owns the
// completion decision; data parcels flow point-to-point as typed payloads
// (wire.go) through the cluster's delivery engine (seq/ack/retransmit over
// its socket mesh), which lives as long as the cluster: a run attaches to it
// and detaches at its end.
//
// Process death is the one crash model of the system (DESIGN.md, "Failure
// handling"), and a run does not repair it. A death verdict — issued by rank
// 0 and in every rank's event log — fails the run on every rank with a
// *RankLostError naming the dead rank. The caller re-runs the job; the next
// job's base lists the dead rank, so its placement leaves it out. One
// recovery rule, "re-run on the survivors", and nothing on the fault-free
// path pays for it.
//
// A rank runs the same executor as an in-process evaluation (exec.go): its
// runNode walks a fired node's out edges, its deliver applies them and its
// near tasks apply the S->T edges of the leaves the rank homes (the near
// field never touches the wire). What this file adds is the fabric that
// executor holds: the install of a remote source's payload, once however
// often its parcel arrives; the applied bits that make each edge apply once,
// because delivery is at-least-once; and the rank-0 gather.

// RankLostError ends a distributed run when a rank of its job dies: every
// live rank's DistRun returns it, naming the dead rank (match it with
// errors.As). The caller re-runs the job on the survivors.
type RankLostError struct {
	Rank int
}

func (e *RankLostError) Error() string {
	return fmt.Sprintf("core: rank %d lost mid-run", e.Rank)
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
	// with the cumulative fire count and this rank's owned-node total. The
	// chaos harness uses it to SIGKILL the process at a chosen local
	// progress fraction; core stays OS-agnostic.
	OnProgress func(fired, ownedTotal int)
	// Job is the cluster job this run is one rank's side of — rank 0 passes
	// what StartJob returned, a worker what its log handed it — so every rank
	// starts from the same wire generation and places the DAG over the same
	// live ranks; the generation also seeds the run's steal order. Nil on a
	// one-shot cluster: generation 0, nobody dead.
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
// wrapping ctx.Err(); one that loses a rank fails with a *RankLostError.
// DistRun runs the cluster's join barrier itself, so callers go NewCluster →
// DistRun → Close.
func DistRun(ctx context.Context, p *Plan, cl *amt.Cluster, charges []float64, opts DistOptions) (pots []float64, rep ExecReport, err error) {
	opts = opts.withDefaults()
	if len(charges) != len(p.Source.Pts) {
		return nil, ExecReport{}, fmt.Errorf("core: %d charges for %d sources", len(charges), len(p.Source.Pts))
	}
	if err := p.checkKernel(); err != nil {
		return nil, ExecReport{}, err
	}
	if slices.Contains(opts.Job.DeadOrder, cl.Rank()) {
		return nil, ExecReport{}, fmt.Errorf("core: rank %d is listed dead in the job placement", cl.Rank())
	}
	st, err := p.newState(opts.Gradient)
	if err != nil {
		return nil, ExecReport{}, err
	}
	// The charges are in the state from the start, so whoever seeds a near
	// task need not ask.
	st.reset(charges)
	// SPMD placement: every rank computes the same assignment, over the
	// ranks alive when the job was placed.
	ex := newExecutor(st, survivors(cl.World(), opts.Job.DeadOrder))
	fb := newFabric(ex, cl, opts)
	if err := cl.Start(); err != nil {
		return nil, ExecReport{}, err
	}
	// The run goes onto its rank in one step — wire handler, outbound stamp
	// and log cursor, all at the job's generation; frames of this run that
	// got here first were waiting at the fence and now queue in the runtime
	// until Run starts, and closing the cursor detaches the run. One watcher
	// reads the log from the job on (a one-shot cluster: from the
	// beginning), so a verdict or the coordinator going away before the run
	// got here is replayed to it in log order. It is joined after rt.Run
	// below, before the results are read; the defer covers the error paths.
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
		tr := cl.TransportStats()
		fb.fail(fmt.Errorf("core: rank %d distributed evaluation: %w "+
			"(%d/%d owned nodes fired, %d decode errors; "+
			"wire sent=%d acked=%d retried=%d expired=%d dropped=%d)",
			fb.rank, ctx.Err(), int64(fb.ownedTotal)-fb.ownedLeft.Load(), fb.ownedTotal,
			fb.decodeErrs.Load(),
			tr.Sent, tr.Acked, tr.Retried, tr.DeadlineExceeded, tr.Dropped))
	})
	defer stop()

	start := time.Now()
	stats := ex.rt.Run(fb.seed)
	elapsed := time.Since(start)
	// Quiesce before reading any run state: the defer above runs only after
	// the return values (st.potentials()) have been evaluated. The transport
	// report is read once the run is detached, abandoned parcels included.
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

// survivors lists the ranks of a world of n that are not in dead, in rank
// order: the order of the verdicts does not matter.
func survivors(n int, dead []int) []int32 {
	return slices.DeleteFunc(localities(n), func(r int32) bool { return slices.Contains(dead, int(r)) })
}

// fabric is one rank's side of a distributed run: everything DistRun needs
// beyond the executor it shares with the in-process path. The executor owns
// the per-node locks, countdowns, continuations and the homes table; the
// fabric owns what makes those work across a wire.
type fabric struct {
	ex          *executor
	cl          *amt.Cluster
	rank, world int
	opts        DistOptions

	// installed marks a remote source node whose payload a parcel has put
	// into this rank's state; it is read and set only under the node's lock
	// (install). applied (indexed edgeBase[source] + out-edge index) fences
	// an edge against a second application. tnodes are the target nodes
	// rank 0 gathers.
	installed []bool
	edgeBase  []int32
	applied   []atomic.Bool
	tnodes    []int32

	// ownedTotal counts this rank's homed nodes, ownedLeft those yet to
	// fire; ownedLeft hitting zero triggers the result report.
	ownedTotal int
	ownedLeft  atomic.Int64

	// Rank-0 gather state.
	covMu   sync.Mutex
	covered map[int32]bool // guarded by covMu
	done    bool           // guarded by covMu

	relOnce sync.Once

	// errMu/runErr hold the run's first fatal error: the end of its context,
	// a lost coordinator, a lost rank.
	errMu  sync.Mutex
	runErr error // guarded by errMu

	decodeErrs atomic.Int64
}

// newFabric puts an executor on the cluster: the dedup indexes over its
// graph, a one-locality runtime at this rank, and node continuations that
// count towards the rank's completion.
func newFabric(ex *executor, cl *amt.Cluster, opts DistOptions) *fabric {
	g := ex.g
	n := len(g.Nodes)
	fb := &fabric{
		ex: ex, cl: cl,
		rank: cl.Rank(), world: cl.World(), opts: opts,
		installed: make([]bool, n),
		edgeBase:  make([]int32, n+1),
		covered:   make(map[int32]bool),
	}
	var edges int32
	for i := range g.Nodes {
		fb.edgeBase[i] = edges
		edges += int32(len(g.Nodes[i].Out))
		if int(ex.homes[i]) == fb.rank {
			fb.ownedTotal++
		}
		if g.Nodes[i].Kind == dag.NodeT {
			fb.tnodes = append(fb.tnodes, g.Nodes[i].ID)
		}
		id := int32(i)
		ex.tasks[i] = func(w *amt.Worker) { fb.runNode(w, id) }
	}
	// M->L batches complete in shared memory: list 2 runs per edge here.
	ex.batchPending, ex.batchTasks = nil, nil
	fb.edgeBase[n] = edges
	fb.applied = make([]atomic.Bool, edges)
	fb.ownedLeft.Store(int64(fb.ownedTotal))

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
	fb.ex.seedRoots()
	if fb.ownedTotal == 0 {
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

// handleParcel installs one parcel's source payload and hands its edges to
// the executor's deliver, whose applied bits drop the edges of a repeated
// copy. Every rank computed the same placement, so a parcel from a source
// this rank homes, or naming a target it does not, is malformed.
func (fb *fabric) handleParcel(w *amt.Worker, f amt.Frame) {
	ex := fb.ex
	r := amt.NewCursor(f.Payload)
	src, outIdx, err := decodeParcelHeader(ex.g, &r)
	if err != nil || ex.hosts(src) {
		fb.decodeErrs.Add(1)
		return
	}
	n := &ex.g.Nodes[src]
	for _, j := range outIdx {
		if !ex.hosts(n.Out[j].To) {
			fb.decodeErrs.Add(1)
			return
		}
	}
	if !fb.install(n, &r) {
		fb.decodeErrs.Add(1)
		return
	}
	for _, j := range outIdx {
		ex.deliver(w, n, j)
	}
}

// install puts a remote source's payload into this rank's state the first
// time one of its parcels arrives, under the node's lock; a later copy
// carries the same values and installs nothing, so no payload is rewritten
// while an edge reads it. False means the payload did not decode: the node
// stays uninstalled, for a sound copy to overwrite.
func (fb *fabric) install(n *dag.Node, r *amt.Cursor) bool {
	lk := &fb.ex.locks[n.ID]
	lk.Lock()
	defer lk.Unlock()
	if fb.installed[n.ID] {
		return true
	}
	fb.ex.st.installNodePayload(n, r)
	if r.Done() != nil {
		return false
	}
	fb.installed[n.ID] = true
	return true
}

// runNode is the node continuation under a fabric: the executor's out-edge
// walk, then the node counts towards this rank's completion. A node fires
// once: its countdown reaches zero once, and a root is seeded once.
func (fb *fabric) runNode(w *amt.Worker, id int32) {
	fb.ex.runNode(w, id)
	left := fb.ownedLeft.Add(-1)
	if left == 0 {
		fb.completeLocal()
	}
	if fb.opts.OnProgress != nil {
		fb.opts.OnProgress(fb.ownedTotal-int(left), fb.ownedTotal)
	}
}

// completeLocal reports this rank's targets once all its nodes have fired:
// rank 0 marks its own coverage, workers ship potentials to rank 0.
func (fb *fabric) completeLocal() {
	var ids []int32
	for _, id := range fb.tnodes {
		if fb.ex.hosts(id) {
			ids = append(ids, id)
		}
	}
	if fb.rank == 0 {
		fb.markCovered(ids)
		return
	}
	fb.cl.Send(fb.ex.rt, 0, wireKindResult, 0, fb.ex.st.encodeResult(ids))
}

// handleResult installs a worker's completed-targets report (rank 0); a
// repeated copy installs the same values again and covers nothing new. The
// install writes target potentials, so it excludes another report's install
// (covMu); the completion decision after it needs no lock of its own.
func (fb *fabric) handleResult(f amt.Frame) {
	if fb.rank != 0 {
		fb.decodeErrs.Add(1)
		return
	}
	fb.covMu.Lock()
	ids, err := fb.ex.st.installResult(f.Payload, len(fb.tnodes))
	fb.covMu.Unlock()
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

// watch is the run's one consumer of the cluster's event log: a death
// verdict — for any rank, this one included (a false heartbeat verdict
// fences it) — fails the run, the run-complete signal of this run's
// generation lets it drain, and losing the coordinator (or the cluster)
// fails it.
func (fb *fabric) watch(sub *amt.Subscription, gen uint32) {
	for {
		ev, ok := sub.Next()
		if !ok {
			return
		}
		switch {
		case ev.Kind == amt.EventDead:
			fb.fail(&RankLostError{Rank: ev.Rank})
		case ev.Kind == amt.EventRunDone && ev.Gen == gen:
			fb.release()
		case ev.Kind == amt.EventCoordLost:
			fb.fail(ev.Err)
		}
	}
}
