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
// for nobody. Parcels flow point-to-point as typed payloads (wire.go)
// through the cluster's delivery engine (seq/ack/retransmit over its socket
// mesh), which lives as long as the cluster: a run attaches to it and
// detaches at its end. Rank 0 gathers the target potentials and owns the
// completion decision: a worker's fired target node is one more parcel to
// rank 0, and the last target in ends the run.
//
// Process death is the one crash model of the system (DESIGN.md, "Failure
// handling"), and a run does not repair it. A death verdict — issued by rank
// 0 and in every rank's event log — fails the run on every rank with a
// *RankLostError naming the dead rank. The caller re-runs the job; the next
// job's base lists the dead rank, so its placement leaves it out. One
// recovery rule, "re-run on the survivors", and nothing on the fault-free
// path pays for it.
//
// A rank runs the same executor, through the same run body, as an
// in-process evaluation (exec.go): its runNode walks a fired node's out edges
// and gathers a target, its deliver applies edges, its far batches apply the
// M->L, M->I and I->L edges into the nodes the rank homes and its near tasks
// the S->T edges of the leaves it homes (the near field never touches the
// wire). What this file adds is the fabric that executor holds: the run on
// the cluster (join, attach, event log, context), and the install of a
// remote node's payload — the one duplicate filter a run needs, because
// delivery is at-least-once. A node fires once per run and coalesces its
// edges for a rank into one parcel, whose every copy is the same frame, so
// the copy that installs the payload delivers the parcel's edges and counts
// its source into the rank's far batches (or, at rank 0, counts a gathered
// target in) and every later copy does nothing.

// RankLostError ends a distributed run when a rank of its job dies: every
// live rank's DistRun returns it, naming the dead rank (match it with
// errors.As). The caller re-runs the job on the survivors.
type RankLostError struct {
	Rank int
}

func (e *RankLostError) Error() string {
	return fmt.Sprintf("core: rank %d lost mid-run", e.Rank)
}

// DistRun evaluates the plan across the cluster. Every rank of the cluster
// must call it with an identically-built plan and the same charge vector;
// rank 0 receives the potentials (and gradients, via the report), the
// workers nil. A run that ctx ends before it finishes fails with an error
// wrapping ctx.Err(); one that loses a rank fails with a *RankLostError.
// DistRun runs the cluster's join barrier itself, so callers go NewCluster →
// DistRun → Close.
func DistRun(ctx context.Context, p *Plan, cl *amt.Cluster, charges []float64, opts ExecOptions) ([]float64, ExecReport, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, ExecReport{}, err
	}
	if slices.Contains(opts.Job.DeadOrder, cl.Rank()) {
		return nil, ExecReport{}, fmt.Errorf("core: rank %d is listed dead in the job placement", cl.Rank())
	}
	// SPMD placement: every rank computes the same assignment, over the
	// ranks alive when the job was placed.
	ex := newExecutor(p.newState(opts.Gradient), survivors(cl.World(), opts.Job.DeadOrder), cl.Rank(), opts)
	newFabric(ex, cl)
	return ex.run(ctx, charges)
}

// endedRunErr is the error of a run that rank 0 ended before this rank
// attached: the cursor's log, replayed from the job to the run-complete
// signal, holds what a watcher would have seen. The first death verdict in it
// failed the run (*RankLostError), as would the coordinator's loss; a run
// with neither finished, and this rank's context ending is still its error.
func endedRunErr(ctx context.Context, run *amt.Subscription, gen uint32) error {
	for {
		ev, ok := run.Next()
		switch {
		case !ok, ev.Kind == amt.EventRunDone && ev.Gen == gen:
			return ctx.Err()
		case ev.Kind == amt.EventDead:
			return &RankLostError{Rank: ev.Rank}
		case ev.Kind == amt.EventCoordLost:
			return ev.Err
		}
	}
}

// survivors lists the ranks of a world of n that are not in dead, in rank
// order: the order of the verdicts does not matter.
func survivors(n int, dead []int) []int32 {
	var live []int32
	for r := range n {
		if !slices.Contains(dead, r) {
			live = append(live, int32(r))
		}
	}
	return live
}

// fabric is one rank's side of a distributed run: everything DistRun needs
// beyond the executor it shares with the in-process path. The executor owns
// the per-node locks, countdowns, continuations and the homes table; the
// fabric owns what makes those work across a wire.
type fabric struct {
	ex *executor
	cl *amt.Cluster

	// installed marks a remote node whose payload a parcel has put into this
	// rank's state; it is read and set only under the node's lock (install).
	installed []bool

	relOnce sync.Once

	// errMu/runErr hold the run's first fatal error: the end of its context,
	// a lost coordinator, a lost rank.
	errMu  sync.Mutex
	runErr error // guarded by errMu

	decodeErrs atomic.Int64
}

// newFabric puts an executor on the cluster: an install mark per node.
func newFabric(ex *executor, cl *amt.Cluster) *fabric {
	fb := &fabric{
		ex: ex, cl: cl,
		installed: make([]bool, len(ex.g.Nodes)),
	}
	ex.fab = fb
	return fb
}

// run is rt.Run on a rank, filling in rep. It joins the cluster and puts the
// run onto this rank in one step — wire handler, outbound stamp and log
// cursor, all at the job's generation; frames of this run that got here
// first were waiting at the fence and now queue in the runtime until Run
// starts, and closing the cursor detaches the run. One watcher reads the log
// from the job on (a one-shot cluster: from the beginning), so a verdict or
// the coordinator going away before the run got here is replayed to it in
// log order. The run is quiesced — detached, its watcher joined — before
// run returns and anyone reads its state.
func (fb *fabric) run(ctx context.Context, rep *ExecReport) error {
	ex, cl, job := fb.ex, fb.cl, fb.ex.opts.Job
	rep.Localities = cl.World()
	if err := cl.Start(); err != nil {
		return err
	}
	run := cl.Attach(job, fb.onFrame)
	if run.Ended() {
		// Rank 0 ended the run before it got here — it finished a DAG in
		// which this rank owns no target, or it failed: evaluating now would
		// only send parcels nobody waits for. The log says which.
		defer run.Close()
		return endedRunErr(ctx, run, job.Gen)
	}
	watched := make(chan struct{})
	go func() {
		defer close(watched)
		fb.watch(run, job.Gen)
	}()
	stop := context.AfterFunc(ctx, func() {
		tr := cl.TransportStats()
		fb.fail(fmt.Errorf("core: rank %d distributed evaluation: %w "+
			"(%d/%d owned nodes fired, %d decode errors; "+
			"wire sent=%d acked=%d retried=%d expired=%d dropped=%d)",
			ex.rank, ctx.Err(), ex.fired.Load(), ex.owned,
			fb.decodeErrs.Load(),
			tr.Sent, tr.Acked, tr.Retried, tr.DeadlineExceeded, tr.Dropped))
	})
	start := time.Now()
	rep.Runtime = ex.rt.Run(fb.seed)
	rep.Elapsed = time.Since(start)
	stop()
	run.Close()
	<-watched
	// The transport report is read once the run is detached, abandoned
	// parcels included.
	rep.Runtime.Transport = cl.TransportStats()
	err := fb.err()
	if err != nil && ex.rank == 0 {
		// Rank 0 ends a run that failed here, so the workers' runs drain; a
		// finished run is ended by its last target (executor.gathered).
		cl.Shutdown()
	}
	return err
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
// inputs, the charges, are here from the start.
func (fb *fabric) seed() {
	fb.ex.rt.Hold()
	fb.ex.seedRoots()
}

// onFrame is the run's wire handler: each parcel the delivery engine hands
// over becomes a task on this rank's scheduler (handleParcel).
func (fb *fabric) onFrame(f amt.Frame) {
	fb.ex.rt.Spawn(func(w *amt.Worker) { fb.handleParcel(w, f) })
}

// handleParcel installs one parcel's source payload and, on that first
// install only, hands its edges to the executor's deliver — all but its far
// edges, whose batches it counts the source into instead; a target node's
// parcel is rank 0's gather, counted in on its first install. A repeated
// copy installs, delivers and counts nothing: the first did it all. Every
// rank computed the same placement, so a parcel from a source this rank
// homes, naming a target it does not, or of a target node reaching a worker
// rank, is malformed.
func (fb *fabric) handleParcel(w *amt.Worker, f amt.Frame) {
	ex := fb.ex
	r := amt.NewCursor(f.Payload)
	src, outIdx, err := decodeParcelHeader(ex.g, &r)
	if f.Kind != wireKindParcel || err != nil || ex.hosts(src) {
		fb.decodeErrs.Add(1)
		return
	}
	n := &ex.g.Nodes[src]
	if n.Kind == dag.NodeT && ex.rank != 0 {
		fb.decodeErrs.Add(1)
		return
	}
	for _, j := range outIdx {
		if !ex.hosts(n.Out[j].To) {
			fb.decodeErrs.Add(1)
			return
		}
	}
	first, ok := fb.install(n, &r)
	if !ok {
		fb.decodeErrs.Add(1)
		return
	}
	if !first {
		return
	}
	if n.Kind == dag.NodeT {
		ex.gathered()
	}
	for _, j := range outIdx {
		if !dag.FarBatched(n.Out[j].Op) {
			ex.deliver(w, n, j)
		}
	}
	ex.noteBatchSources(w, src)
}

// install puts a remote node's payload into this rank's state the first
// time one of its parcels arrives, under the node's lock, and reports whether
// this copy was that first; a later copy carries the same values and installs
// nothing, so no payload is rewritten while an edge reads it. Not ok means
// the payload did not decode: the node stays uninstalled, for a sound copy to
// overwrite.
func (fb *fabric) install(n *dag.Node, r *amt.Cursor) (first, ok bool) {
	lk := &fb.ex.locks[n.ID]
	lk.Lock()
	defer lk.Unlock()
	if fb.installed[n.ID] {
		return false, true
	}
	fb.ex.st.installNodePayload(n, r)
	if r.Done() != nil {
		return false, false
	}
	fb.installed[n.ID] = true
	return true, true
}

// watch is the run's one consumer of the cluster's event log: a death
// verdict — for any rank, this one included (a false heartbeat verdict
// fences it) — fails the run, the run-complete signal of this run's
// generation lets it drain, and losing the coordinator (or the cluster)
// fails it. At rank 0 a verdict after the last target is in fails nothing:
// the answer is whole, and the verdict settled the dead rank's parcels, so
// Run still returns.
func (fb *fabric) watch(sub *amt.Subscription, gen uint32) {
	ex := fb.ex
	for {
		ev, ok := sub.Next()
		if !ok {
			return
		}
		switch {
		case ev.Kind == amt.EventDead && (ex.rank != 0 || ex.targetsLeft.Load() > 0):
			fb.fail(&RankLostError{Rank: ev.Rank})
		case ev.Kind == amt.EventRunDone && ev.Gen == gen:
			fb.release()
		case ev.Kind == amt.EventCoordLost:
			fb.fail(ev.Err)
		}
	}
}
