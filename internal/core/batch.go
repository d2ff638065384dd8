package core

import (
	"sync/atomic"

	"repro/internal/amt"
	"repro/internal/dag"
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
// An M->L batch is guarded by a pending-source counter: a triggering node
// skips its batched out-edges on the per-edge path and decrements the
// counters of the batches it feeds; the last source in spawns the batch
// task, which applies every member edge through the kernel's blocked
// multi-RHS M->L and then runs the ordinary LCO bookkeeping per edge —
// target lock, reduction, input countdown, trigger — so downstream
// scheduling is identical to per-edge execution. These complete in shared
// memory (the member edges bypass the parcel accounting), so an executor
// under a fabric runs list 2 per edge.

// batchBlock is the far-field GEMM block: 16 right-hand sides of scratch
// (25.6 KB at p=9) keep the accumulation out of the target locks while the
// 160 KB operator plus the block stays L2-resident.
const batchBlock = 16

// batchScratch is the pooled per-task scratch of the M->L batches.
type batchScratch struct {
	buf  []complex128 // batchBlock contiguous out vectors
	ins  [batchBlock][]complex128
	outs [batchBlock][]complex128
}

// initBatches wires the plan's descriptors into the executor: per target
// leaf the source chunks of its near list (points and charge slots do not
// move for the life of the state) and a prebuilt near task; per M->L batch a
// pending counter and a prebuilt task, and their scratch pool.
func (ex *executor) initBatches() {
	st, b := ex.st, ex.st.p.batches
	ex.near = make([]amt.Task, len(b.P2P))
	ex.nearChunks = make([][]kernel.P2PChunk, len(b.P2P))
	for i, pb := range b.P2P {
		pi := int32(i)
		ex.near[i] = func(w *amt.Worker) { ex.runNear(w, pi) }
		for _, be := range pb.Edges {
			sb := ex.g.Nodes[be.From].Box
			ex.nearChunks[i] = append(ex.nearChunks[i], kernel.P2PChunk{Pts: st.srcPts(sb), Q: st.q[sb.Lo:sb.Hi]})
		}
	}
	ex.batchPending = make([]atomic.Int32, len(b.M2L))
	ex.batchTasks = make([]amt.Task, len(b.M2L))
	for i := range ex.batchTasks {
		bi := int32(i)
		ex.batchTasks[i] = func(w *amt.Worker) { ex.runBatchM2L(w, bi) }
	}
	sq := st.p.Kernel.MLSize()
	ex.batchScratch.New = func() any {
		sc := &batchScratch{buf: make([]complex128, batchBlock*sq)}
		for k := 0; k < batchBlock; k++ {
			sc.outs[k] = sc.buf[k*sq : (k+1)*sq]
		}
		return sc
	}
}

// noteBatchSources records that node id has triggered against every M->L
// batch it feeds; the last source in spawns the batch task on the triggering
// worker.
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

// runBatchM2L applies one far-field batch: blocks of batchBlock edges are
// run through the kernel's multi-RHS apply into pooled scratch (no lock
// held while the GEMM streams), then each edge's result is reduced into its
// target under the target lock with the usual LCO countdown. Every source
// of the batch is complete before the task spawns, so the source payloads
// are immutable here and are read without their locks.
//
//dashmm:noalloc
func (ex *executor) runBatchM2L(w *amt.Worker, bi int32) {
	mb := &ex.st.p.batches.M2L[bi]
	sc := ex.batchScratch.Get().(*batchScratch)
	st := ex.st
	for lo := 0; lo < len(mb.Edges); lo += batchBlock {
		hi := lo + batchBlock
		if hi > len(mb.Edges) {
			hi = len(mb.Edges)
		}
		nb := hi - lo
		for k := 0; k < nb; k++ {
			sc.ins[k] = st.exp[mb.Edges[lo+k].From]
			out := sc.outs[k]
			for j := range out {
				out[j] = 0
			}
		}
		var t0 int64
		if ex.opts.Tracer.Enabled() {
			t0 = ex.opts.Tracer.Now()
		}
		st.p.Kernel.M2LBatch(mb.Offs[lo:hi], mb.Side, mb.Level, sc.ins[:nb], sc.outs[:nb])
		for k := 0; k < nb; k++ {
			be := mb.Edges[lo+k]
			out := sc.outs[k]
			ex.locks[be.To].Lock()
			dst := st.exp[be.To]
			for j, v := range out {
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

// runNear is the near task of one target leaf: its source chunks applied
// under the single target lock — swept through the kernel's tiled P2P, or,
// in a gradient run (the tiles compute potentials only), chunk by chunk —
// then the target counted down by the whole list. It is seeded once per
// run, on the leaf's home (seedRoots), so it runs once. The span it records
// is the sweep, not the wait for the lock.
//
//dashmm:noalloc
func (ex *executor) runNear(w *amt.Worker, pi int32) {
	pb, chunks, st := &ex.st.p.batches.P2P[pi], ex.nearChunks[pi], ex.st
	tb := ex.g.Nodes[pb.Target].Box
	tpts, pot := st.tgtPts(tb), st.pot[tb.Lo:tb.Hi]
	var t0, end int64
	ex.locks[pb.Target].Lock()
	if ex.opts.Tracer.Enabled() {
		t0 = ex.opts.Tracer.Now()
	}
	if st.grad != nil {
		grad := st.grad[tb.Lo:tb.Hi]
		for _, ch := range chunks {
			st.p.Kernel.S2TGrad(ch.Pts, ch.Q, tpts, pot, grad)
		}
	} else {
		st.p.Kernel.P2P(chunks, tpts, pot)
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
