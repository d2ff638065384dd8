package core

import (
	"slices"
	"sync/atomic"

	"repro/internal/amt"
	"repro/internal/dag"
	"repro/internal/geom"
	"repro/internal/kernel"
)

// Batched execution (DESIGN.md, "Batched execution"). The plan carries
// batch descriptors (dag.BuildBatches); the executor turns each into one
// prebuilt task.
//
// A near list belongs to its target leaf. Its inputs — source points, and
// charges once a run has them — are on every rank at t = 0, so its task is
// seeded with the roots on the leaf's home, waits for nothing and applies
// every S->T edge of the leaf under one target lock. No source node walks an
// S->T edge and none crosses a rank: one path under every AMT executor,
// gradients or not.
//
// A far batch — list-2 M->L, or the plane-wave M->I or I->L of one level —
// runs on every rank as its members whose targets the rank hosts, guarded by
// a pending count of their distinct sources: a triggering node skips its
// batched out-edges into this rank on the per-edge path and counts itself
// into the batches it feeds here, and a remote source counts itself in when
// its parcel first installs here (fabric.handleParcel); the last source in
// spawns the batch task, which applies every member edge through the
// kernel's blocked multi-RHS applies and then runs the ordinary LCO
// bookkeeping per edge — target lock, reduction, input countdown, trigger —
// so downstream scheduling is identical to per-edge execution. In process a
// rank hosts every member, and each batch is its descriptor.

// batchBlock is the far-field GEMM block: 16 right-hand sides share one
// table — the M->L table of an offset (97 KB at a face offset, the block
// of its order elsewhere), or the 0.47 MB M->I or I->L
// table of a direction at p = 9 — as four tiles of the kernel's register
// GEMM, each 32 table rows read once from memory and three more times from
// L1 (kernel/dense.go), and their outputs go to the worker's scratch (14 KB
// of L expansions, or 69 KB of 268-term waves), out of the target locks
// while the table streams.
const batchBlock = 16

// farBatch is this rank's share of a far batch: the descriptor with Edges cut
// to the members whose targets the rank hosts, the count of their distinct
// sources, which the batch waits for run by run (pending), and its task.
type farBatch struct {
	dag.FarBatch
	sources int32
	pending atomic.Int32
	task    amt.Task
}

// scratch is one worker's, indexed by its ID, so it dies with its executor:
// the near tasks' sums (grad in a gradient run only); the far batch tasks'
// GEMM block — buf holds batchBlock contiguous outputs of the widest
// far-field vector of the batches the rank hosts members of (a packed M/L
// expansion or a half wave; none without), outs slices them to the block's
// vector length — and sum, one L expansion per member of a plane-wave batch,
// where an I->L member's directions meet before its one locked add; and
// runNode's remote out-edges, lists[i] those bound for rank dests[i].
type scratch struct {
	pot  []float64
	grad []geom.Point
	buf  []complex128
	sum  []complex128
	ins  [batchBlock][]complex128
	outs [batchBlock][]complex128
	// sel lists the members of a plane-wave batch that carry the direction
	// in flight.
	sel   [dag.WaveBatchSources]int
	dests []int32
	lists [][]int32
}

// initBatches wires the plan's descriptors into the executor: per target
// leaf the source chunks of its near list (points and charge slots do not
// move for the life of the state) and a prebuilt near task; per far batch
// this rank's share and a prebuilt task, and per node the far batches it
// feeds here; per worker its scratch.
func (ex *executor) initBatches() {
	st, b := ex.st, ex.st.p.batches
	ex.near = make([]amt.Task, len(b.P2P))
	ex.nearChunks = make([][]kernel.P2PChunk, len(b.P2P))
	leaf := 0
	for i, pb := range b.P2P {
		pi := int32(i)
		ex.near[i] = func(w *amt.Worker) { ex.runNear(w, pi) }
		leaf = max(leaf, ex.g.Nodes[pb.Target].Box.NPoints())
		for _, be := range pb.Edges {
			sb := ex.g.Nodes[be.From].Box
			ex.nearChunks[i] = append(ex.nearChunks[i], kernel.P2PChunk{Pts: st.srcPts(sb), Q: st.q[sb.Lo:sb.Hi]})
		}
	}
	ex.far = make([]farBatch, len(b.Far))
	ex.feeds = make([][]int32, len(ex.g.Nodes))
	ml := st.p.Kernel.MLSize()
	width, sums := 0, 0
	for i := range b.Far {
		fb := &ex.far[i]
		fb.FarBatch = b.Far[i]
		if fb.Edges = ex.hostedMembers(fb.Edges); len(fb.Edges) == 0 {
			continue // no source counts it down here: it never runs
		}
		for m, be := range fb.Edges {
			if m == 0 || fb.Edges[m-1].From != be.From { // members are in source order
				fb.sources++
				ex.feeds[be.From] = append(ex.feeds[be.From], int32(i))
			}
		}
		if fb.Op == dag.OpM2L {
			fb.task = func(w *amt.Worker) { ex.runBatchM2L(w, fb) }
			width = max(width, ml)
			continue
		}
		fb.task = func(w *amt.Worker) { ex.runBatchWave(w, fb) }
		width, sums = max(width, st.p.Kernel.ISize(fb.Level)), dag.WaveBatchSources*ml
	}
	ex.scratch = make([]scratch, ex.opts.Workers)
	for i := range ex.scratch {
		sc := &ex.scratch[i]
		sc.pot, sc.buf, sc.sum = make([]float64, leaf), make([]complex128, batchBlock*width), make([]complex128, sums)
		if st.grad != nil {
			sc.grad = make([]geom.Point, leaf)
		}
	}
}

// hostedMembers is the members of a far batch whose targets this rank hosts:
// the descriptor's own slice when it hosts them all, as in process.
func (ex *executor) hostedMembers(edges []dag.BatchEdge) []dag.BatchEdge {
	if !slices.ContainsFunc(edges, func(be dag.BatchEdge) bool { return !ex.hosts(be.To) }) {
		return edges
	}
	return slices.DeleteFunc(slices.Clone(edges), func(be dag.BatchEdge) bool { return !ex.hosts(be.To) })
}

// scratchOf is worker w's scratch; a call from outside the runtime (w nil)
// uses worker 0's.
//
//dashmm:noalloc
func (ex *executor) scratchOf(w *amt.Worker) *scratch {
	if w == nil {
		return &ex.scratch[0]
	}
	return &ex.scratch[w.ID]
}

// noteBatchSources records that node id has triggered, here or, installed
// from its parcel, on another rank, against every far batch it feeds on this
// rank; the last source in spawns the batch task on the worker.
//
//dashmm:noalloc
func (ex *executor) noteBatchSources(w *amt.Worker, id int32) {
	for _, bi := range ex.feeds[id] {
		if fb := &ex.far[bi]; fb.pending.Add(-1) == 0 {
			w.Spawn(fb.task)
		}
	}
}

// block slices the scratch into n output vectors of length size, zeroed.
//
//dashmm:noalloc
func (sc *scratch) block(n, size int) [][]complex128 {
	for k := 0; k < n; k++ {
		out := sc.buf[k*size : (k+1)*size : (k+1)*size]
		clear(out)
		sc.outs[k] = out
	}
	return sc.outs[:n]
}

// runBatchM2L applies one list-2 batch: blocks of batchBlock edges are run
// through the kernel's multi-RHS apply into the worker's scratch (no lock held
// while the GEMM streams), then each edge's result is reduced into its
// target under the target lock with the usual LCO countdown. Every source
// of the batch is complete before the task spawns, so the source payloads
// are immutable here and are read without their locks.
//
//dashmm:noalloc
func (ex *executor) runBatchM2L(w *amt.Worker, mb *farBatch) {
	sc, st := ex.scratchOf(w), ex.st
	for lo := 0; lo < len(mb.Edges); lo += batchBlock {
		hi := min(lo+batchBlock, len(mb.Edges))
		nb := hi - lo
		outs := sc.block(nb, st.p.Kernel.MLSize())
		for k := 0; k < nb; k++ {
			sc.ins[k] = st.exp(mb.Edges[lo+k].From)
		}
		var t0 int64
		if ex.opts.Tracer.Enabled() {
			t0 = ex.opts.Tracer.Now()
		}
		st.p.Kernel.M2LBatch(mb.Offs[lo:hi], mb.Side, mb.Level, sc.ins[:nb], outs)
		for k := 0; k < nb; k++ {
			be := mb.Edges[lo+k]
			ex.addInto(be.To, st.exp(be.To), outs[k])
			if ex.opts.Tracer.Enabled() {
				// One event per member edge, partitioning the block's wall
				// time so the utilization analysis conserves operator mass.
				now := ex.opts.Tracer.Now()
				ex.record(w, dag.OpM2L, t0, now)
				t0 = now
			}
			if ex.remaining[be.To].Add(-1) == 0 {
				ex.fireNode(w, be.To)
			}
		}
	}
}

// runBatchWave applies one plane-wave batch: the M->I or I->L edges of up
// to dag.WaveBatchSources sources of one level. It walks the six directions
// from the batch's first; for each it gathers the members that carry the
// direction — an M->I edge's DirMask, an I->L source's OwnMask — and runs
// them through the kernel's multi-RHS apply in blocks of batchBlock, so the
// direction's table is fetched once per block rather than once per member.
// An M->I block goes to scratch and each wave is added into its Is node's
// under the node's lock; an I->L member sums its directions in scratch and
// adds the sum into its L node under one lock at the end. Then every member
// counts its target down once. The trace gets one event per member, the
// task's span split evenly between them.
//
//dashmm:noalloc
func (ex *executor) runBatchWave(w *amt.Worker, fb *farBatch) {
	sc, st, k := ex.scratchOf(w), ex.st, ex.st.p.Kernel
	var t0 int64
	if ex.opts.Tracer.Enabled() {
		t0 = ex.opts.Tracer.Now()
	}
	ml := k.MLSize()
	sums := sc.sum[:len(fb.Edges)*ml]
	if fb.Op == dag.OpI2L {
		clear(sums)
	}
	for s := 0; s < geom.NumDirections; s++ {
		d := (int(fb.First) + s) % geom.NumDirections
		sel := sc.sel[:0]
		for m := range fb.Edges {
			if ex.waveDirs(fb, m)&(1<<uint(d)) != 0 {
				sel = append(sel, m)
			}
		}
		for lo := 0; lo < len(sel); lo += batchBlock {
			ex.applyWaveBlock(fb, sc, geom.Direction(d), sel[lo:min(lo+batchBlock, len(sel))], sums)
		}
	}
	if fb.Op == dag.OpI2L {
		for m, be := range fb.Edges {
			ex.addInto(be.To, st.exp(be.To), sums[m*ml:(m+1)*ml])
		}
	}
	if ex.opts.Tracer.Enabled() {
		end, n := ex.opts.Tracer.Now(), int64(len(fb.Edges))
		for m := int64(0); m < n; m++ {
			ex.record(w, fb.Op, t0+(end-t0)*m/n, t0+(end-t0)*(m+1)/n)
		}
	}
	for _, be := range fb.Edges {
		if ex.remaining[be.To].Add(-1) == 0 {
			ex.fireNode(w, be.To)
		}
	}
}

// waveDirs is the direction set member m of a plane-wave batch carries: its
// M->I edge's DirMask, or its It source's OwnMask for I->L.
//
//dashmm:noalloc
func (ex *executor) waveDirs(fb *farBatch, m int) uint8 {
	be := fb.Edges[m]
	n := &ex.g.Nodes[be.From]
	if fb.Op == dag.OpM2I {
		return n.Out[be.Out].DirMask
	}
	return n.OwnMask
}

// applyWaveBlock applies direction dir's table to the members of a
// plane-wave batch listed in block, at most batchBlock of them: M->I into
// scratch waves, each then added into its Is node's wave of the direction
// under the node's lock; I->L straight into the members' sums.
//
//dashmm:noalloc
func (ex *executor) applyWaveBlock(fb *farBatch, sc *scratch, dir geom.Direction, block []int, sums []complex128) {
	st, k := ex.st, ex.st.p.Kernel
	nb := len(block)
	if fb.Op == dag.OpI2L {
		ml := k.MLSize()
		for i, m := range block {
			sc.ins[i] = st.wave(fb.Edges[m].From, int(dir), false)
			sc.outs[i] = sums[m*ml : (m+1)*ml : (m+1)*ml]
		}
		k.I2LBatch(dir, fb.Level, sc.ins[:nb], sc.outs[:nb])
		return
	}
	outs := sc.block(nb, k.ISize(fb.Level))
	for i, m := range block {
		sc.ins[i] = st.exp(fb.Edges[m].From)
	}
	k.M2IBatch(dir, fb.Level, sc.ins[:nb], outs)
	for i, m := range block {
		to := fb.Edges[m].To
		ex.addInto(to, st.wave(to, int(dir), false), outs[i])
	}
}

// addInto adds v into dst, a vector of node id's payload, under the node's
// lock.
//
//dashmm:noalloc
func (ex *executor) addInto(id int32, dst, v []complex128) {
	ex.locks[id].Lock()
	for j, x := range v {
		dst[j] += x
	}
	ex.locks[id].Unlock()
}

// runNear is the near task of one target leaf: its source chunks swept
// into the worker's scratch — through the kernel's tiled P2P, or, in a
// gradient run (the tiles compute potentials only), chunk by chunk — and
// the sums added into the leaf under its lock, then the target counted down
// by the whole list. The lock is held for the add, not the sweep, so a far-field
// L->T or M->T into the leaf waits microseconds, not a sweep. It is seeded
// once per run, on the leaf's home (seedRoots), so it runs once. The span
// it records is the sweep and the add, not the wait for the lock.
//
//dashmm:noalloc
func (ex *executor) runNear(w *amt.Worker, pi int32) {
	pb, chunks, st := &ex.st.p.batches.P2P[pi], ex.nearChunks[pi], ex.st
	tb := ex.g.Nodes[pb.Target].Box
	tpts, sc := st.tgtPts(tb), ex.scratchOf(w)
	pot := sc.pot[:len(tpts)]
	clear(pot)
	var t0 int64
	if ex.opts.Tracer.Enabled() {
		t0 = ex.opts.Tracer.Now()
	}
	var grad []geom.Point
	if st.grad != nil {
		grad = sc.grad[:len(tpts)]
		clear(grad)
		for _, ch := range chunks {
			st.p.Kernel.S2TGrad(ch.Pts, ch.Q, tpts, pot, grad)
		}
	} else {
		st.p.Kernel.P2P(chunks, tpts, pot)
	}
	var t1, end int64
	if ex.opts.Tracer.Enabled() {
		t1 = ex.opts.Tracer.Now()
	}
	ex.locks[pb.Target].Lock()
	if ex.opts.Tracer.Enabled() {
		t0 += ex.opts.Tracer.Now() - t1 // the span skips the lock wait
	}
	for i, v := range pot {
		st.pot[tb.Lo+i] += v
	}
	for i, g := range grad {
		st.grad[tb.Lo+i] = st.grad[tb.Lo+i].Add(g)
	}
	if ex.opts.Tracer.Enabled() {
		end = ex.opts.Tracer.Now()
	}
	ex.locks[pb.Target].Unlock()
	if ex.opts.Tracer.Enabled() {
		// One event per member edge: the first spans the sweep, the rest are
		// zero-width markers, conserving both event counts and time mass.
		for k := range pb.Edges {
			start := end
			if k == 0 {
				start = t0
			}
			ex.record(w, dag.OpS2T, start, end)
		}
	}
	if ex.remaining[pb.Target].Add(-int32(len(pb.Edges))) == 0 {
		ex.fireNode(w, pb.Target)
	}
}
