package core

import (
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
// is guarded by a pending-source counter: a triggering node skips its
// batched out-edges on the per-edge path and decrements the counters of the
// batches it feeds; the last source in spawns the batch task, which applies
// every member edge through the kernel's blocked multi-RHS applies and then
// runs the ordinary LCO bookkeeping per edge — target lock, reduction,
// input countdown, trigger — so downstream scheduling is identical to
// per-edge execution. These complete in shared memory (the member edges
// bypass the parcel accounting), so an executor under a fabric runs all
// three classes per edge.

// batchBlock is the far-field GEMM block: 16 right-hand sides share one
// table — the 97 KB M->L table of an offset, or the 0.84 MB M->I or I->L
// table of a direction at p = 9 — while it stays L2-resident, and their
// outputs go to pooled scratch (14 KB of L expansions, or 122 KB of
// 477-term waves), out of the target locks while the table streams.
const batchBlock = 16

// batchScratch is the pooled per-task scratch of the batch tasks: buf holds
// batchBlock contiguous outputs of the plan's largest far-field vector (a
// packed M/L expansion, or the widest half wave of a level with plane-wave
// batches), outs slices them to the block's vector length; sum holds one
// L expansion per member of a plane-wave batch (when the plan has any),
// where an I->L member's directions meet before its one locked add.
type batchScratch struct {
	buf  []complex128
	sum  []complex128
	ins  [batchBlock][]complex128
	outs [batchBlock][]complex128
	// sel lists the members of a plane-wave batch that carry the direction
	// in flight.
	sel [dag.WaveBatchSources]int
}

// initBatches wires the plan's descriptors into the executor: per target
// leaf the source chunks of its near list (points and charge slots do not
// move for the life of the state) and a prebuilt near task; per far batch a
// pending counter and a prebuilt task, and their scratch pool.
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
	ex.batchPending = make([]atomic.Int32, len(b.Far))
	ex.batchTasks = make([]amt.Task, len(b.Far))
	ml := st.p.Kernel.MLSize()
	width, sums := ml, 0
	for i, fb := range b.Far {
		bi := int32(i)
		if fb.Op == dag.OpM2L {
			ex.batchTasks[i] = func(w *amt.Worker) { ex.runBatchM2L(w, bi) }
			continue
		}
		ex.batchTasks[i] = func(w *amt.Worker) { ex.runBatchWave(w, bi) }
		width, sums = max(width, st.p.Kernel.ISize(fb.Level)), dag.WaveBatchSources*ml
	}
	ex.batchScratch.New = func() any {
		return &batchScratch{buf: make([]complex128, batchBlock*width), sum: make([]complex128, sums)}
	}
	// The near tasks' sums, one leaf's worth per worker: plain slices, not
	// the pool, because a fabric builds an executor per run and a pool's
	// items outlive its executor by a garbage-collection cycle.
	ex.nearPot = make([][]float64, ex.opts.Workers)
	for i := range ex.nearPot {
		ex.nearPot[i] = make([]float64, leaf)
	}
	if st.grad != nil {
		ex.nearGrad = make([][]geom.Point, ex.opts.Workers)
		for i := range ex.nearGrad {
			ex.nearGrad[i] = make([]geom.Point, leaf)
		}
	}
}

// noteBatchSources records that node id has triggered against every far
// batch it feeds; the last source in spawns the batch task on the
// triggering worker.
//
//dashmm:noalloc
func (ex *executor) noteBatchSources(w *amt.Worker, id int32) {
	if ex.batchTasks == nil {
		return
	}
	for _, bi := range ex.st.p.batches.SrcBatches[id] {
		if ex.batchPending[bi].Add(-1) == 0 {
			w.Spawn(ex.batchTasks[bi])
		}
	}
}

// block slices the scratch into n output vectors of length size, zeroed.
//
//dashmm:noalloc
func (sc *batchScratch) block(n, size int) [][]complex128 {
	for k := 0; k < n; k++ {
		out := sc.buf[k*size : (k+1)*size : (k+1)*size]
		clear(out)
		sc.outs[k] = out
	}
	return sc.outs[:n]
}

// runBatchM2L applies one list-2 batch: blocks of batchBlock edges are run
// through the kernel's multi-RHS apply into pooled scratch (no lock held
// while the GEMM streams), then each edge's result is reduced into its
// target under the target lock with the usual LCO countdown. Every source
// of the batch is complete before the task spawns, so the source payloads
// are immutable here and are read without their locks.
//
//dashmm:noalloc
func (ex *executor) runBatchM2L(w *amt.Worker, bi int32) {
	mb := &ex.st.p.batches.Far[bi]
	sc := ex.batchScratch.Get().(*batchScratch)
	st := ex.st
	for lo := 0; lo < len(mb.Edges); lo += batchBlock {
		hi := min(lo+batchBlock, len(mb.Edges))
		nb := hi - lo
		outs := sc.block(nb, st.p.Kernel.MLSize())
		for k := 0; k < nb; k++ {
			sc.ins[k] = st.exp[mb.Edges[lo+k].From]
		}
		var t0 int64
		if ex.opts.Tracer.Enabled() {
			t0 = ex.opts.Tracer.Now()
		}
		st.p.Kernel.M2LBatch(mb.Offs[lo:hi], mb.Side, mb.Level, sc.ins[:nb], outs)
		for k := 0; k < nb; k++ {
			be := mb.Edges[lo+k]
			ex.locks[be.To].Lock()
			dst := st.exp[be.To]
			for j, v := range outs[k] {
				dst[j] += v
			}
			ex.locks[be.To].Unlock()
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
	ex.batchScratch.Put(sc)
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
func (ex *executor) runBatchWave(w *amt.Worker, bi int32) {
	fb := &ex.st.p.batches.Far[bi]
	sc := ex.batchScratch.Get().(*batchScratch)
	st, k := ex.st, ex.st.p.Kernel
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
			ex.locks[be.To].Lock()
			dst := st.exp[be.To]
			for j, v := range sums[m*ml : (m+1)*ml] {
				dst[j] += v
			}
			ex.locks[be.To].Unlock()
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
	ex.batchScratch.Put(sc)
}

// waveDirs is the direction set member m of a plane-wave batch carries: its
// M->I edge's DirMask, or its It source's OwnMask for I->L.
//
//dashmm:noalloc
func (ex *executor) waveDirs(fb *dag.FarBatch, m int) uint8 {
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
func (ex *executor) applyWaveBlock(fb *dag.FarBatch, sc *batchScratch, dir geom.Direction, block []int, sums []complex128) {
	st, k := ex.st, ex.st.p.Kernel
	nb := len(block)
	if fb.Op == dag.OpI2L {
		ml := k.MLSize()
		for i, m := range block {
			sc.ins[i] = st.own[fb.Edges[m].From][dir]
			sc.outs[i] = sums[m*ml : (m+1)*ml : (m+1)*ml]
		}
		k.I2LBatch(dir, fb.Level, sc.ins[:nb], sc.outs[:nb])
		return
	}
	outs := sc.block(nb, k.ISize(fb.Level))
	for i, m := range block {
		sc.ins[i] = st.exp[fb.Edges[m].From]
	}
	k.M2IBatch(dir, fb.Level, sc.ins[:nb], outs)
	for i, m := range block {
		to := fb.Edges[m].To
		ex.locks[to].Lock()
		dst := st.own[to][dir]
		for j, v := range outs[i] {
			dst[j] += v
		}
		ex.locks[to].Unlock()
	}
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
	tpts := st.tgtPts(tb)
	slot := 0 // a call from outside the runtime (w nil) uses worker 0's scratch
	if w != nil {
		slot = w.ID
	}
	pot := ex.nearPot[slot][:len(tpts)]
	clear(pot)
	var t0 int64
	if ex.opts.Tracer.Enabled() {
		t0 = ex.opts.Tracer.Now()
	}
	var grad []geom.Point
	if st.grad != nil {
		grad = ex.nearGrad[slot][:len(tpts)]
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
