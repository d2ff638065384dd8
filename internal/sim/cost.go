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
	// Level, when non-nil, prices S→T per pair and the three plane-wave
	// operators per direction by tree level (the index) instead of through
	// OpNanos: an M→I edge carries one to six directions and, for the
	// scale-variant Yukawa kernel, a wave's length depends on its level, as
	// does whether a target leaf's pairs run in float32 (kernel.Price).
	Level []LevelNanos
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

// LevelNanos is the cost at one tree level of one S→T pair into a target
// box of that level and of one direction of each plane-wave operator on a
// wave of that level.
type LevelNanos struct{ S2T, M2I, I2I, I2L float64 }

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
// in a model with Level set, for an S→T edge Units x the price of the
// target's level and for a plane-wave edge directions x the price of the
// level the executor applies the operator at (core's state.apply).
func (m *CostModel) EdgeNanos(g *dag.Graph, from *dag.Node, e dag.Edge) float64 {
	if m.Level == nil {
		return Units(g, from, e) * m.OpNanos[e.Op]
	}
	switch e.Op {
	case dag.OpS2T:
		return Units(g, from, e) * m.Level[g.Nodes[e.To].Level()].S2T
	case dag.OpM2I:
		return float64(bits.OnesCount8(e.DirMask)) * m.Level[from.Level()].M2I
	case dag.OpI2L:
		return float64(bits.OnesCount8(from.OwnMask)) * m.Level[from.Level()].I2L
	case dag.OpI2I:
		to := &g.Nodes[e.To]
		switch {
		case e.DirMask == 0: // transfer: one direction, into an own or a child-level wave
			lvl := to.Level()
			if e.ToMerged {
				lvl++
			}
			return m.Level[lvl].I2I
		case e.FromMerged: // distribution: the parent's child-level waves
			return float64(bits.OnesCount8(e.DirMask)) * m.Level[to.Level()].I2I
		default: // merge: the child's own waves
			return float64(bits.OnesCount8(e.DirMask)) * m.Level[from.Level()].I2I
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
		m.Level = append(m.Level, LevelNanos{S2T: p.S2T, M2I: p.M2I, I2I: p.I2I, I2L: p.I2L})
	}
	return m
}
