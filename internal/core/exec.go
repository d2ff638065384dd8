package core

import (
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

// ExecOptions configures a parallel evaluation on the AMT runtime.
type ExecOptions struct {
	// Localities and Workers shape the runtime (defaults 1 and 1).
	Localities int
	Workers    int
	// Tracer, if non-nil, records one event per operator application for
	// the utilization analysis.
	Tracer *trace.Tracer
	// Seed makes the scheduler's steal order reproducible.
	Seed int64
	// Gradient also computes the potential gradient at every target;
	// retrieve it with EvaluateGrad.
	Gradient bool
}

func (o ExecOptions) withDefaults() ExecOptions {
	if o.Localities <= 0 {
		o.Localities = 1
	}
	if o.Workers <= 0 {
		o.Workers = 1
	}
	return o
}

// ExecReport describes one parallel evaluation.
type ExecReport struct {
	// Gradients holds the per-target potential gradient when
	// ExecOptions.Gradient was set (nil otherwise), in the caller's target
	// order.
	Gradients   []geom.Point
	Runtime     amt.Stats
	Elapsed     time.Duration
	RemoteBytes int64
	RemoteEdges int64
	Localities  int
	Workers     int
	// RuntimeReused reports that the evaluation ran on a pooled runtime
	// re-armed from a previous Run instead of a freshly built one.
	RuntimeReused bool
}

// parcelOverhead is the per-edge descriptor cost added to a coalesced
// parcel (operation type + target global address), as in Section IV.
const parcelOverhead = 16

// Evaluate runs the DAG on the AMT runtime: every expansion node is an LCO
// — its payload, a lock, an input countdown and a prebuilt continuation —
// and the last arriving input spawns the continuation, which processes the
// out edges: local edges sequentially (the paper's cache-locality choice),
// remote edges coalesced into one parcel per destination locality carrying
// the expansion data and the relevant edges — except the S->T edges, whose
// inputs are all there at t = 0: each target leaf applies its whole near
// list in one task of its own (batch.go).
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
	plan *Plan
	opts ExecOptions
	ex   *executor
}

// NewParallelEvaluation allocates a parallel evaluation context and places
// the DAG for its shape (dist.MinComm). The placement lives in the context,
// not in the plan's graph, so contexts of different shapes may share a plan
// and run concurrently.
func (p *Plan) NewParallelEvaluation(opts ExecOptions) (*ParallelEvaluation, error) {
	opts = opts.withDefaults()
	st, err := p.newState(opts.Gradient)
	if err != nil {
		return nil, err
	}
	ex := newExecutor(st, localities(opts.Localities))
	ex.tracer = opts.Tracer
	return &ParallelEvaluation{plan: p, opts: opts, ex: ex}, nil
}

// Run evaluates the DAG for one charge vector, reusing the context's payload
// buffers, LCO network and pooled runtime. Everything a run leaves behind —
// payloads, countdowns, batch counters — is re-armed here, so a context whose
// last Run failed needs no scrubbing.
func (e *ParallelEvaluation) Run(charges []float64) ([]float64, ExecReport, error) {
	p, ex, opts := e.plan, e.ex, e.opts
	if len(charges) != len(p.Source.Pts) {
		return nil, ExecReport{}, fmt.Errorf("core: %d charges for %d sources", len(charges), len(p.Source.Pts))
	}
	if err := p.checkKernel(); err != nil {
		return nil, ExecReport{}, err
	}
	ex.st.reset(charges)
	ex.arm()

	// One runtime serves every Run: built on the first, re-armed per
	// generation (amt.Runtime.Reset) on every later one, failed runs
	// included, to skip the worker/deque allocation of amt.New. Nothing
	// aborts an in-process run — rt.Run returns once every task has — so
	// the runtime is always quiesced here, and Reset's refusal is a bug
	// reported, not a case handled.
	runtimeReused := ex.rt != nil
	if runtimeReused {
		if err := ex.rt.Reset(); err != nil {
			return nil, ExecReport{}, err
		}
	} else {
		ex.rt = amt.New(amt.Config{
			Localities: opts.Localities,
			Workers:    opts.Workers,
			Seed:       opts.Seed,
		})
	}

	start := time.Now()
	stats := ex.rt.Run(ex.seedRoots)
	elapsed := time.Since(start)

	if err := p.checkKernel(); err != nil {
		return nil, ExecReport{}, err
	}

	// Every node must have fired: an LCO that can never be satisfied lets the
	// run drain without it.
	for i := range ex.remaining {
		if ex.remaining[i].Load() > 0 {
			return nil, ExecReport{}, fmt.Errorf("core: node %d (%v) never triggered (%d inputs missing)",
				i, ex.g.Nodes[i].Kind, ex.remaining[i].Load())
		}
	}
	return ex.st.potentials(), ExecReport{
		Gradients:     ex.st.gradients(),
		Runtime:       stats,
		Elapsed:       elapsed,
		RemoteBytes:   ex.remoteBytes,
		RemoteEdges:   ex.remoteEdges,
		Localities:    opts.Localities,
		Workers:       opts.Workers,
		RuntimeReused: runtimeReused,
	}, nil
}

// executor is the LCO network of one evaluation context, and the one
// implementation of "node fired → walk Out → apply local edges → coalesce
// remote edges per destination → count the target down → spawn it": a DAG
// node's slot in locks/remaining/tasks, with its payload in st, is the
// paper's expansion LCO. ParallelEvaluation runs it over the localities of
// one process; DistRun runs the same code as one rank of a cluster, with the
// two things distribution adds — parcels that cross a process boundary, edges
// that may arrive twice — switched on the fabric it then holds.
type executor struct {
	st     *state
	g      *dag.Graph
	rt     *amt.Runtime // in-process pooled across Runs (nil before the first), one per run under a fabric
	tracer *trace.Tracer
	// fab is the distributed side of a DistRun (distrib.go); nil in-process.
	fab *fabric
	// homes is the placement: node → locality in-process, node → rank under
	// a fabric, fixed at construction. remoteBytes and remoteEdges are the
	// communication volume it implies.
	homes                    []int32
	remoteBytes, remoteEdges int64
	remaining                []atomic.Int32
	locks                    []sync.Mutex
	tasks                    []amt.Task // prebuilt node continuations, indexed by node ID
	// Batched execution (batch.go): the kernel's batched surface (nil when it
	// has none), per target leaf a prebuilt near task and its source chunks,
	// one pending-source counter and prebuilt task per M->L batch (nil when the
	// context runs list 2 per edge: under a fabric, on a kernel without the
	// surface), and the pooled GEMM scratch.
	bk           kernel.BatchKernel
	near         []amt.Task
	nearChunks   [][]kernel.P2PChunk
	batchPending []atomic.Int32
	batchTasks   []amt.Task
	batchScratch sync.Pool
}

// newExecutor builds the LCO network of a state and places it over the live
// localities (Plan.place): the placement runs once, here, and the executor
// keeps its own copy of the result.
func newExecutor(st *state, live []int32) *executor {
	g := st.p.Graph
	homes, remoteBytes, remoteEdges := st.p.place(live)
	ex := &executor{
		st:          st,
		g:           g,
		homes:       homes,
		remoteBytes: remoteBytes,
		remoteEdges: remoteEdges,
		remaining:   make([]atomic.Int32, len(g.Nodes)),
		locks:       make([]sync.Mutex, len(g.Nodes)),
		tasks:       make([]amt.Task, len(g.Nodes)),
	}
	// One continuation closure per node, built once and spawned by pointer
	// on every trigger — the hot path never allocates a closure.
	for i := range ex.tasks {
		id := int32(i)
		ex.tasks[i] = func(w *amt.Worker) { ex.runNode(w, id) }
	}
	ex.initBatches()
	return ex
}

// arm readies the network for a run: every countdown at its node's input
// count, every batch counter at its source count.
func (ex *executor) arm() {
	for i := range ex.remaining {
		ex.remaining[i].Store(ex.g.Nodes[i].In)
	}
	for i := range ex.batchPending {
		ex.batchPending[i].Store(int32(len(ex.st.p.batches.M2L[i].Srcs)))
	}
}

// seedRoots spawns what waits for nothing, on the nodes this runtime hosts:
// the near task of every target leaf, then the continuation of every
// input-free node. In that order: a worker pops the newest task of its deque,
// so it starts on the upward sweep — the head of the far-field chain — and
// the near field stays at the old end, where thieves take from, as filler.
func (ex *executor) seedRoots() {
	for pi, pb := range ex.st.p.batches.P2P {
		if ex.hosts(pb.Target) {
			ex.rt.Locality(int(ex.homes[pb.Target])).Spawn(ex.near[pi])
		}
	}
	for _, id := range ex.g.Roots() {
		if ex.hosts(id) {
			ex.fireNode(nil, id)
		}
	}
}

// hosts reports whether this runtime runs node id's tasks: every node's
// in-process, those the rank homes under a fabric.
func (ex *executor) hosts(id int32) bool {
	return ex.fab == nil || int(ex.homes[id]) == ex.fab.rank
}

// parcelEdges is a pooled remote-edge list: the indexes, within the source
// node's Out list, of the edges bound for one destination. Ownership passes
// to the parcel, which recycles the list once every edge is delivered
// (in-process) or encoded (under a fabric).
type parcelEdges struct{ idx []int32 }

var parcelEdgesPool = sync.Pool{New: func() any { return new(parcelEdges) }}

func (pe *parcelEdges) recycle() {
	pe.idx = pe.idx[:0]
	parcelEdgesPool.Put(pe)
}

// remoteBatch groups one node's remote out-edges by destination locality.
// Nodes touch only a few localities, so a linear scan over a small pooled
// slice beats a map allocation per trigger.
type remoteBatch struct {
	dests []int32
	lists []*parcelEdges
}

var remoteBatchPool = sync.Pool{New: func() any { return new(remoteBatch) }}

//dashmm:noalloc
func (b *remoteBatch) add(dest, out int32) {
	for i, d := range b.dests {
		if d == dest {
			b.lists[i].idx = append(b.lists[i].idx, out)
			return
		}
	}
	pe := parcelEdgesPool.Get().(*parcelEdges)
	pe.idx = append(pe.idx[:0], out)
	b.dests = append(b.dests, dest)
	b.lists = append(b.lists, pe)
}

//dashmm:noalloc
func (b *remoteBatch) release() {
	for i := range b.lists {
		b.lists[i] = nil // ownership moved to the parcels
	}
	b.dests = b.dests[:0]
	b.lists = b.lists[:0]
	remoteBatchPool.Put(b)
}

// runNode is the continuation of node id: process the out-edge list. It
// runs once per evaluation, when the node's LCO triggers (all inputs
// arrived); under a fabric, fabric.runNode also counts it towards the rank's
// completion.
func (ex *executor) runNode(w *amt.Worker, id int32) {
	n := &ex.g.Nodes[id]
	me := int32(w.Rank())
	// Local edges first, sequentially: the large input payload is reused
	// while hot (Section VI discusses this trade-off).
	var batch *remoteBatch
	for j, e := range n.Out {
		if e.Op == dag.OpS2T || (e.Batched && ex.batchTasks != nil) {
			// Not this node's to walk: an S->T edge belongs to its target's
			// near task, a batched M->L edge to the batch task that fires when
			// every source of the batch has triggered (noteBatchSources below).
			continue
		}
		dest := ex.homes[e.To]
		if dest == me {
			ex.deliver(w, n, int32(j))
			continue
		}
		if batch == nil {
			batch = remoteBatchPool.Get().(*remoteBatch)
		}
		batch.add(dest, int32(j))
	}
	if batch != nil {
		// One coalesced parcel per destination: expansion data + edge
		// descriptors travel once, the transforms run at the receiver.
		for i, dest := range batch.dests {
			ex.send(w, n, dest, batch.lists[i])
		}
		batch.release()
	}
	ex.noteBatchSources(w, id)
}

// send ships the out-edges of a fired node bound for one destination. Between
// localities of one process the parcel is a closure over the shared state,
// accounted at the modeled size; between ranks it is the node's payload by
// value plus the edge indexes (wire.go), which the receiving fabric installs
// and hands to deliver — the first of the two things distribution changes.
func (ex *executor) send(w *amt.Worker, n *dag.Node, dest int32, pe *parcelEdges) {
	if fb := ex.fab; fb != nil {
		// The payload read is unsynchronized but safe: all inputs are
		// applied (the node just fired), and no parcel installs into a node
		// this rank homes.
		fb.cl.Send(ex.rt, int(dest), wireKindParcel, 0, ex.st.encodeParcel(n, pe.idx))
		pe.recycle()
		return
	}
	bytes := int(n.Bytes) + parcelOverhead*len(pe.idx)
	w.SendParcel(int(dest), bytes, func(w2 *amt.Worker) {
		for _, j := range pe.idx {
			ex.deliver(w2, n, j)
		}
		pe.recycle()
	})
}

// deliver applies out-edge `out` of a fired node into its target LCO: the
// transform plus reduction runs under the target's lock, and the final
// input triggers the target's continuation. Under a fabric the edge's
// applied bit is tested first — the second thing distribution changes: a
// duplicated contribution finds it set and is dropped. The source payload
// needs no lock: a local source has fired, and a remote one was installed
// once (fabric.install) before any of its edges got here.
//
//dashmm:noalloc
func (ex *executor) deliver(w *amt.Worker, from *dag.Node, out int32) {
	if fb := ex.fab; fb != nil && fb.applied[fb.edgeBase[from.ID]+out].Swap(true) {
		return
	}
	e := from.Out[out]
	var t0 int64
	if ex.tracer.Enabled() {
		t0 = ex.tracer.Now()
	}
	ex.locks[e.To].Lock()
	ex.st.apply(from, e)
	rem := ex.remaining[e.To].Add(-1)
	ex.locks[e.To].Unlock()
	if ex.tracer.Enabled() {
		ex.record(w, e.Op, t0, ex.tracer.Now())
	}
	if rem == 0 {
		ex.fireNode(w, e.To)
	}
}

// record traces one operator application on worker w.
//
//dashmm:noalloc
func (ex *executor) record(w *amt.Worker, op dag.OpKind, start, end int64) {
	ex.tracer.Record(w.GlobalID, trace.Event{
		Class:    uint8(op),
		Worker:   int32(w.GlobalID),
		Locality: int32(w.Rank()),
		Start:    start,
		End:      end,
	})
}

// fireNode spawns the continuation of a node whose last input just arrived
// (or that has none: seedRoots) on its home locality — the LCO lives there:
// onto the worker's own deque when it is at home, through the locality's
// inbox otherwise (another locality of this process, or no worker at all).
// Shared by the per-edge delivery, the near tasks and the batch completion
// path.
//
//dashmm:noalloc
func (ex *executor) fireNode(w *amt.Worker, id int32) {
	task, home := ex.tasks[id], int(ex.homes[id])
	if w == nil || w.Rank() != home {
		// Under a fabric only nodes this rank homes are ever fired here.
		ex.rt.Locality(home).Spawn(task)
		return
	}
	w.Spawn(task)
}
