package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/amt"
	"repro/internal/dag"
	"repro/internal/geom"
	"repro/internal/kernel"
	"repro/internal/trace"
)

// ExecOptions configures an evaluation on the AMT runtime: an in-process
// ParallelEvaluation, or one rank's side of a DistRun.
type ExecOptions struct {
	// Localities must be 0 or 1: a runtime hosts one locality, and more are
	// the ranks of a DistRun. Both entry points refuse any other value.
	Localities int
	// Workers is the scheduler thread count (default 1).
	Workers int
	// Tracer, if non-nil, records one event per operator application for
	// the utilization analysis: under DistRun, each one this rank applies.
	Tracer *trace.Tracer
	// Seed makes the scheduler's steal order reproducible; a distributed
	// run adds its job's generation.
	Seed int64
	// Gradient also computes the potential gradient at every target; it
	// comes back in ExecReport.Gradients.
	Gradient bool
	// OnProgress, when non-nil, is invoked after every node the runtime fires
	// with the cumulative fire count and the number of nodes it homes. The
	// chaos harness uses it to SIGKILL a rank at a chosen local progress
	// fraction; core stays OS-agnostic.
	OnProgress func(fired, owned int)
	// Job is the cluster job a DistRun is one rank's side of — rank 0 passes
	// what StartJob returned, a worker what its log handed it — so every rank
	// starts from the same wire generation and places the DAG over the same
	// live ranks. Nil in process and on a one-shot cluster: generation 0,
	// nobody dead.
	Job *amt.Job
}

func (o ExecOptions) withDefaults() (ExecOptions, error) {
	if o.Localities < 0 || o.Localities > 1 {
		return o, fmt.Errorf("core: %d localities asked of one runtime: it hosts one; add Workers, or run ranks with DistRun", o.Localities)
	}
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.Job == nil {
		o.Job = &amt.Job{}
	}
	return o, nil
}

// ExecReport describes one parallel evaluation.
type ExecReport struct {
	// Gradients holds the per-target potential gradient when
	// ExecOptions.Gradient was set (nil otherwise), in the caller's target
	// order.
	Gradients []geom.Point
	Runtime   amt.Stats
	Elapsed   time.Duration
	// Localities is 1 in-process and the cluster's world under DistRun.
	Localities int
	Workers    int
	// RuntimeReused reports that the evaluation ran on a pooled runtime
	// re-armed from a previous Run instead of a freshly built one.
	RuntimeReused bool
}

// Evaluate runs the DAG on the AMT runtime: every expansion node is an LCO
// — its payload, a lock, an input countdown and a prebuilt continuation —
// and the last arriving input spawns the continuation, which applies the
// out edges sequentially (the paper's cache-locality choice) — except the
// S->T edges, whose inputs are all there at t = 0: each target leaf applies
// its whole near list in one task of its own (batch.go). The runtime hosts
// one locality; DistRun spreads the same executor over ranks.
//
// For the paper's iterative use case (many charge vectors over one DAG)
// prefer NewParallelEvaluation, which allocates the payloads and the LCO
// network once and reuses them run over run.
func (p *Plan) Evaluate(charges []float64, opts ExecOptions) ([]float64, ExecReport, error) {
	pe, err := p.NewParallelEvaluation(opts)
	if err != nil {
		return nil, ExecReport{}, err
	}
	return pe.Run(charges)
}

// ParallelEvaluation is a reusable parallel evaluation context over one
// Plan: the expansion payloads, the LCO trigger counters and the node
// continuations are allocated once, so steady-state runs allocate nothing
// per evaluated edge. The runtime itself is kept across Runs too
// (amt.Runtime.Reset re-arms it per generation), so repeated evaluations
// skip the amt.New worker/deque setup. The plan holds no reference to its
// contexts: one is garbage as soon as its last user drops it.
type ParallelEvaluation struct {
	ex *executor
}

// NewParallelEvaluation allocates a parallel evaluation context and places
// the DAG on its one locality (dist.MinComm over [0]). The placement lives in
// the context, not in the plan's graph, so contexts may share a plan and run
// concurrently. More than one locality is an error: that is DistRun's job.
func (p *Plan) NewParallelEvaluation(opts ExecOptions) (*ParallelEvaluation, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	return &ParallelEvaluation{ex: newExecutor(p.newState(opts.Gradient), []int32{0}, 0, opts)}, nil
}

// Run evaluates the DAG for one charge vector, reusing the context's payload
// buffers, LCO network and pooled runtime.
func (e *ParallelEvaluation) Run(charges []float64) ([]float64, ExecReport, error) {
	return e.ex.run(context.Background(), charges)
}

// executor is the LCO network of one evaluation context, and the one
// implementation of "node fired → walk Out → apply local edges → coalesce
// remote edges per destination → count the target down → spawn it": a DAG
// node's slot in locks/remaining/tasks, with its payload in st, is the
// paper's expansion LCO. ParallelEvaluation runs it as rank 0 of a world of
// one, where every edge is local; DistRun runs the same code as one rank
// of a cluster, with what distribution adds — parcels that cross a process
// boundary, and may arrive twice — switched on the fabric it then holds.
// Either way a fired target node is gathered at rank 0 (gather).
type executor struct {
	st   *state
	g    *dag.Graph
	opts ExecOptions
	// rank is the rank the executor runs as: 0 in process.
	rank int32
	rt   *amt.Runtime // built on the first run, re-armed on every later one
	// fab is the distributed side of a DistRun (distrib.go); nil in-process.
	fab *fabric
	// homes is the placement, node → rank, fixed at construction: all 0
	// in-process.
	homes     []int32
	remaining []atomic.Int32
	locks     []sync.Mutex
	tasks     []amt.Task // prebuilt node continuations, indexed by node ID
	// owned counts the nodes this rank homes and fired those fired so far
	// (OnProgress); targets counts the graph's target nodes and targetsLeft,
	// at rank 0, those not yet gathered.
	owned, targets     int
	fired, targetsLeft atomic.Int64
	// Batched execution (batch.go): per target leaf a prebuilt near task and
	// its source chunks; this rank's share of every far batch, and per node
	// the far batches it feeds here; per worker its scratch.
	near       []amt.Task
	nearChunks [][]kernel.P2PChunk
	far        []farBatch
	feeds      [][]int32
	scratch    []scratch
}

// newExecutor builds the LCO network of a state for the given rank and places
// it over the live ranks (Plan.place): the placement runs once, here, and the
// executor keeps its own copy of the result.
func newExecutor(st *state, live []int32, rank int, opts ExecOptions) *executor {
	g := st.p.Graph
	ex := &executor{
		st:        st,
		g:         g,
		opts:      opts,
		rank:      int32(rank),
		homes:     st.p.place(live),
		remaining: make([]atomic.Int32, len(g.Nodes)),
		locks:     make([]sync.Mutex, len(g.Nodes)),
		tasks:     make([]amt.Task, len(g.Nodes)),
	}
	// One continuation closure per node, built once and spawned by pointer
	// on every trigger — the hot path never allocates a closure.
	for i := range ex.tasks {
		id := int32(i)
		ex.tasks[i] = func(w *amt.Worker) { ex.runNode(w, id) }
		if ex.hosts(id) {
			ex.owned++
		}
		if g.Nodes[i].Kind == dag.NodeT {
			ex.targets++
		}
	}
	ex.initBatches()
	return ex
}

// run is the one evaluation body, of ParallelEvaluation.Run and of DistRun
// alike. Everything a run leaves behind — payloads, countdowns, batch
// counters — is re-armed here, so a context whose last run failed needs no
// scrubbing. Rank 0 returns the potentials, a worker rank nil.
func (ex *executor) run(ctx context.Context, charges []float64) ([]float64, ExecReport, error) {
	p := ex.st.p
	if len(charges) != len(p.Source.Pts) {
		return nil, ExecReport{}, fmt.Errorf("core: %d charges for %d sources", len(charges), len(p.Source.Pts))
	}
	if err := p.checkKernel(); err != nil {
		return nil, ExecReport{}, err
	}
	// The charges are in the state from the start, so whoever seeds a near
	// task need not ask.
	ex.st.reset(charges)
	ex.arm()

	// One runtime serves every run of a context: built on the first, re-armed
	// per generation (amt.Runtime.Reset) on every later one, failed runs
	// included, to skip the worker/deque allocation of amt.New. Nothing
	// aborts an in-process run — rt.Run returns once every task has — so
	// the runtime is always quiesced here, and Reset's refusal is a bug
	// reported, not a case handled. A DistRun's executor runs once.
	rep := ExecReport{Localities: 1, Workers: ex.opts.Workers, RuntimeReused: ex.rt != nil}
	if rep.RuntimeReused {
		if err := ex.rt.Reset(); err != nil {
			return nil, ExecReport{}, err
		}
	} else {
		ex.rt = amt.New(amt.Config{Rank: int(ex.rank), Workers: ex.opts.Workers, Seed: ex.opts.Seed + int64(ex.opts.Job.Gen)})
	}
	if ex.fab == nil {
		start := time.Now()
		rep.Runtime = ex.rt.Run(ex.seedRoots)
		rep.Elapsed = time.Since(start)
	} else if err := ex.fab.run(ctx, &rep); err != nil {
		return nil, ExecReport{}, err
	}

	if err := p.checkKernel(); err != nil {
		return nil, ExecReport{}, err
	}
	if ex.rank != 0 {
		return nil, rep, nil
	}
	// Every target must be in: an LCO that can never be satisfied lets the
	// run drain without the targets downstream of it.
	if left := ex.targetsLeft.Load(); left > 0 {
		return nil, ExecReport{}, fmt.Errorf("core: %d of %d target nodes never triggered", left, ex.targets)
	}
	rep.Gradients = ex.st.gradients()
	return ex.st.potentials(), rep, nil
}

// arm readies the network for a run: every countdown at its node's input
// count, every batch counter at its source count, every target to gather.
func (ex *executor) arm() {
	for i := range ex.remaining {
		ex.remaining[i].Store(ex.g.Nodes[i].In)
	}
	for i := range ex.far {
		ex.far[i].pending.Store(ex.far[i].sources)
	}
	ex.fired.Store(0)
	ex.targetsLeft.Store(int64(ex.targets))
}

// seedRoots spawns what waits for nothing, on the nodes this runtime hosts:
// the near task of every target leaf, then the continuation of every
// input-free node. In that order: a worker pops the newest task of its deque,
// so it starts on the upward sweep — the head of the far-field chain — and
// the near field stays at the old end, where thieves take from, as filler.
func (ex *executor) seedRoots() {
	for pi, pb := range ex.st.p.batches.P2P {
		if ex.hosts(pb.Target) {
			ex.rt.Spawn(ex.near[pi])
		}
	}
	for _, id := range ex.g.Roots() {
		if ex.hosts(id) {
			ex.fireNode(nil, id)
		}
	}
}

// hosts reports whether this runtime runs node id's tasks: the nodes its
// rank homes, every node in-process.
func (ex *executor) hosts(id int32) bool {
	return ex.homes[id] == ex.rank
}

// add files out-edge out of the node in flight under destination rank dest.
// Nodes touch only a few ranks, so a linear scan over a small slice beats a
// map.
//
//dashmm:noalloc
func (sc *scratch) add(dest, out int32) {
	for i, d := range sc.dests {
		if d == dest {
			sc.lists[i] = append(sc.lists[i], out)
			return
		}
	}
	i := len(sc.dests)
	sc.dests = append(sc.dests, dest)
	if i == len(sc.lists) {
		sc.lists = append(sc.lists, nil)
	}
	sc.lists[i] = append(sc.lists[i][:0], out)
}

// runNode is the continuation of node id: process the out-edge list, then
// gather the node if it is a target. It runs once per evaluation, when the
// node's LCO triggers (all inputs arrived).
//
//dashmm:noalloc
func (ex *executor) runNode(w *amt.Worker, id int32) {
	n, sc := &ex.g.Nodes[id], ex.scratchOf(w)
	// Local edges first, sequentially: the large input payload is reused
	// while hot (Section VI discusses this trade-off).
	for j, e := range n.Out {
		dest := ex.homes[e.To]
		switch {
		case e.Op == dag.OpS2T, dest == ex.rank && dag.FarBatched(e.Op):
			// Not this node's to walk: an S->T edge belongs to its target's
			// near task, a far edge to the batch task that fires when every
			// source of the batch's members here has triggered
			// (noteBatchSources below). A far edge into another rank rides
			// the parcel, whose install there counts this node in.
		case dest == ex.rank:
			ex.deliver(w, n, int32(j))
		default:
			sc.add(dest, int32(j))
		}
	}
	// One coalesced parcel per destination: expansion data + edge
	// descriptors travel once, the transforms and batches run at the
	// receiver.
	for i, dest := range sc.dests {
		ex.send(n, dest, sc.lists[i])
	}
	sc.dests = sc.dests[:0]
	ex.noteBatchSources(w, id)
	if n.Kind == dag.NodeT {
		ex.gather(n)
	}
	if fired := ex.fired.Add(1); ex.opts.OnProgress != nil {
		ex.opts.OnProgress(int(fired), ex.owned)
	}
}

// send ships the out-edges of a fired node bound for another rank: the
// node's payload by value plus the edge indexes (wire.go), which the
// receiving fabric installs and hands to deliver or counts into its far
// batches. Only a fabric's placement has another rank.
// The payload read is unsynchronized but safe: all inputs are applied (the
// node just fired), and no parcel installs into a node this rank homes.
func (ex *executor) send(n *dag.Node, dest int32, idx []int32) {
	ex.fab.cl.Send(ex.rt, int(dest), wireKindParcel, ex.st.encodeParcel(n, idx))
}

// gather brings a fired target node to rank 0. A worker rank sends its
// potentials (and gradients) there as an ordinary parcel with no edges,
// which rank 0's fabric installs and counts in (handleParcel); rank 0 counts
// its own in here.
func (ex *executor) gather(n *dag.Node) {
	if ex.rank != 0 {
		ex.fab.cl.Send(ex.rt, 0, wireKindParcel, ex.st.encodeParcel(n, nil))
		return
	}
	ex.gathered()
}

// gathered counts one target node in at rank 0. The last one completes the
// run: under a fabric it ends the run on the cluster and lets everyone drain;
// in process the runtime drains by itself.
func (ex *executor) gathered() {
	if ex.targetsLeft.Add(-1) == 0 && ex.fab != nil {
		ex.fab.cl.Shutdown()
		ex.fab.release()
	}
}

// deliver applies out-edge `out` of a fired node into its target LCO: the
// transform plus reduction runs under the target's lock, and the final
// input triggers the target's continuation. It runs once per edge that no
// near task or far batch applies, in process and under a fabric alike: a
// remote source's edges come from the one copy of its parcel that installed
// it (fabric.handleParcel). The source payload needs no lock: a local source
// has fired, and a remote one was installed before any of its edges got
// here. The span it records is the transform, not the wait for the lock.
//
//dashmm:noalloc
func (ex *executor) deliver(w *amt.Worker, from *dag.Node, out int32) {
	e := from.Out[out]
	ex.locks[e.To].Lock()
	var t0 int64
	if ex.opts.Tracer.Enabled() {
		t0 = ex.opts.Tracer.Now()
	}
	ex.st.apply(from, e)
	if ex.opts.Tracer.Enabled() {
		ex.record(w, e.Op, t0, ex.opts.Tracer.Now())
	}
	rem := ex.remaining[e.To].Add(-1)
	ex.locks[e.To].Unlock()
	if rem == 0 {
		ex.fireNode(w, e.To)
	}
}

// record traces one operator application on worker w.
//
//dashmm:noalloc
func (ex *executor) record(w *amt.Worker, op dag.OpKind, start, end int64) {
	ex.opts.Tracer.Record(w.ID, trace.Event{
		Class:    uint8(op),
		Worker:   int32(w.ID),
		Locality: int32(w.Rank()),
		Start:    start,
		End:      end,
	})
}

// fireNode spawns the continuation of a node whose last input just arrived
// (or that has none: seedRoots) on this runtime — only nodes it homes are
// fired here: onto the worker's own deque, or through the runtime's inboxes
// when there is no worker (seedRoots). Shared by the per-edge delivery, the
// near tasks and the batch completion path.
//
//dashmm:noalloc
func (ex *executor) fireNode(w *amt.Worker, id int32) {
	if w == nil {
		ex.rt.Spawn(ex.tasks[id])
		return
	}
	w.Spawn(ex.tasks[id])
}
