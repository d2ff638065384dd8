package sim

import (
	"math/bits"

	"repro/internal/dag"
	"repro/internal/kernel"
)

// CostModel maps DAG edges to execution times in nanoseconds. It is filled
// one of three ways: from the paper's Table II (PaperCostModel), from a
// traced run of the same graph (Calibrate), or from the kernel's own price
// list (KernelModel) — the model the leaf-size tuner, the daemon's admission
// check and dashmm-bench's ladder all sum with Predict.
type CostModel struct {
	// OpNanos is the cost per work unit of each operator class; see Units.
	OpNanos [dag.NumOpKinds]float64
	// Wave, when non-nil, prices the three plane-wave operators per
	// direction and per tree level (the index) instead of per edge through
	// OpNanos: an M→I edge carries one to six directions and, for the
	// scale-variant Yukawa kernel, a wave's length depends on its level.
	Wave []WaveNanos
	// TaskOverhead is the fixed scheduling cost per task (thread spawn,
	// LCO bookkeeping).
	TaskOverhead float64
	// LatencyNanos is the per-parcel network latency between localities.
	LatencyNanos float64
	// BytesPerNano is the network bandwidth (0 = infinite).
	BytesPerNano float64
	// RecvNanosPerByte is the unattributed receiver-side cost of a parcel
	// (memory copies and dynamic allocation for non-local out-edge
	// handling): the paper blames exactly these for the ~10% utilization
	// deficit of multi-locality runs (Section V-B).
	RecvNanosPerByte float64
}

// WaveNanos is the cost of one direction of each plane-wave operator on a
// wave of one tree level.
type WaveNanos struct{ M2I, I2I, I2L float64 }

// Units returns the number of cost units of an edge: point-dependent
// operators scale with the number of points involved, expansion-to-
// expansion operators cost one unit.
func Units(g *dag.Graph, from *dag.Node, e dag.Edge) float64 {
	to := &g.Nodes[e.To]
	switch e.Op {
	case dag.OpS2T:
		return float64(from.Box.NPoints()) * float64(to.Box.NPoints())
	case dag.OpS2M, dag.OpS2L:
		return float64(from.Box.NPoints())
	case dag.OpM2T, dag.OpL2T:
		return float64(to.Box.NPoints())
	default:
		return 1
	}
}

// EdgeNanos is the modelled execution time of one edge: Units x OpNanos, or
// for a plane-wave edge of a model with Wave set, directions x the price of
// the level the executor applies the operator at (core's state.apply).
func (m *CostModel) EdgeNanos(g *dag.Graph, from *dag.Node, e dag.Edge) float64 {
	if m.Wave == nil {
		return Units(g, from, e) * m.OpNanos[e.Op]
	}
	switch e.Op {
	case dag.OpM2I:
		return float64(bits.OnesCount8(e.DirMask)) * m.Wave[from.Level()].M2I
	case dag.OpI2L:
		return float64(bits.OnesCount8(from.OwnMask)) * m.Wave[from.Level()].I2L
	case dag.OpI2I:
		to := &g.Nodes[e.To]
		switch {
		case e.DirMask == 0: // transfer: one direction, into an own or a child-level wave
			lvl := to.Level()
			if e.ToMerged {
				lvl++
			}
			return m.Wave[lvl].I2I
		case e.FromMerged: // distribution: the parent's child-level waves
			return float64(bits.OnesCount8(e.DirMask)) * m.Wave[to.Level()].I2I
		default: // merge: the child's own waves
			return float64(bits.OnesCount8(e.DirMask)) * m.Wave[from.Level()].I2I
		}
	}
	return Units(g, from, e) * m.OpNanos[e.Op]
}

// Predict sums the model over every edge of the graph: the busy
// nanoseconds of one evaluation, per operator class.
func (m *CostModel) Predict(g *dag.Graph) (byOp [dag.NumOpKinds]float64) {
	for i := range g.Nodes {
		n := &g.Nodes[i]
		for _, e := range n.Out {
			byOp[e.Op] += m.EdgeNanos(g, n, e)
		}
	}
	return byOp
}

// KernelModel fills a cost model from the kernel's own price list
// (kernel.Price) for a tree of the given depth. The kernel must be prepared
// for maxLevel+1 levels, as core.NewPlan prepares it: a merged wave lives
// one level below its box.
func KernelModel(k kernel.Kernel, maxLevel int) CostModel {
	p := kernel.Price(k, 0)
	m := CostModel{OpNanos: [dag.NumOpKinds]float64{
		dag.OpS2M: p.S2M, dag.OpM2M: p.M2M, dag.OpM2L: p.M2L, dag.OpL2L: p.L2L,
		dag.OpL2T: p.L2T, dag.OpM2T: p.M2T, dag.OpS2L: p.S2L, dag.OpS2T: p.S2T,
		dag.OpM2I: p.M2I, dag.OpI2I: p.I2I, dag.OpI2L: p.I2L,
	}}
	for l := 0; l <= maxLevel+1; l++ {
		p := kernel.Price(k, l)
		m.Wave = append(m.Wave, WaveNanos{M2I: p.M2I, I2I: p.I2I, I2L: p.I2L})
	}
	return m
}
