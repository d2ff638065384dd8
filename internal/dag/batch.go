package dag

import (
	"math"
	"sort"

	"repro/internal/kernel"
)

// Batch descriptors (DESIGN.md, "Batched execution"): the graph's list-2
// M->L edges are aggregated at plan-build time by the dense operator they
// apply — one batch per (level, side, lattice offset) — and the near-field
// S->T edges by their target leaf. An M->L batch fires once every source
// feeding it has triggered, replacing many per-edge operator applications
// with one blocked multi-RHS apply; edges whose geometry falls off the
// interaction lattice are left unbatched and flow through the ordinary
// per-edge path. A near list has nothing to wait for — every rank holds
// every source point and, once a run has its charges, every charge — so it
// names no sources: the AMT executors run it as one task of its target leaf.
// Either way it is an execution strategy, never a semantics change.

// BatchEdge locates one member edge of a batch: out-edge Out of node From,
// delivering into To (denormalized from Nodes[From].Out[Out].To so the
// executor avoids a double indirection per edge).
type BatchEdge struct {
	From int32
	Out  int32
	To   int32
}

// M2LBatch groups the same-level list-2 edges sharing one cached dense
// operator, in source-id order; every edge of the batch has the same
// offset, so the kernel's multi-RHS apply sees one maximal run.
type M2LBatch struct {
	// Side is the source box side; Level the tree level of the sources.
	Side  float64
	Level int
	// Off is the shared lattice offset of every edge.
	Off kernel.M2LOffset
	// Offs holds Off repeated per edge, in the layout kernel.M2LBatch
	// consumes (kept materialized so the hot path never allocates).
	Offs  []kernel.M2LOffset
	Edges []BatchEdge
	// Srcs lists the distinct source nodes feeding the batch; the batch
	// fires when all of them have triggered.
	Srcs []int32
}

// P2PBatch is the near list of one target leaf: every S->T edge into the
// terminal target node, in source-id order.
type P2PBatch struct {
	Target int32
	Edges  []BatchEdge
}

// Batches is the batch-descriptor set carried by a core.Plan (and therefore
// reused by the serve plan cache along with the rest of the plan).
type Batches struct {
	M2L []M2LBatch
	P2P []P2PBatch
	// SrcBatches[node] lists the M2L batches the node feeds; the executor
	// decrements each batch's pending counter once when the node triggers.
	SrcBatches [][]int32
}

// m2lGroupKey identifies one far-field batch.
type m2lGroupKey struct {
	sideBits uint64
	off      kernel.M2LOffset
}

// BuildBatches aggregates the graph's list-2 and near-field edges and marks
// the batched M->L edges with Edge.Batched. It is deterministic (same graph,
// same descriptors) and idempotent: every flag is recomputed from the
// current geometry, so a graph whose box centers were perturbed after a
// previous build reclassifies cleanly.
func BuildBatches(g *Graph, k kernel.Kernel) *Batches {
	b := &Batches{SrcBatches: make([][]int32, len(g.Nodes))}

	// Far field: group list-2 edges by (side, offset); off-lattice edges
	// keep flowing per-edge. Near field: one list per target, a map from the
	// target to its index in b.P2P while the nodes are walked in id order.
	m2l := make(map[m2lGroupKey]*M2LBatch)
	var m2lKeys []m2lGroupKey
	near := make(map[int32]int)
	for i := range g.Nodes {
		n := &g.Nodes[i]
		for j := range n.Out {
			e := &n.Out[j]
			e.Batched = false
			if e.Op == OpS2T {
				pi, ok := near[e.To]
				if !ok {
					pi = len(b.P2P)
					near[e.To] = pi
					b.P2P = append(b.P2P, P2PBatch{Target: e.To})
				}
				b.P2P[pi].Edges = append(b.P2P[pi].Edges, BatchEdge{From: int32(i), Out: int32(j), To: e.To})
				continue
			}
			if e.Op != OpM2L {
				continue
			}
			from, to := n.Box, g.Nodes[e.To].Box
			off, onLattice := k.M2LOffsetOf(from.Center, to.Center, from.Side)
			if !onLattice {
				continue
			}
			key := m2lGroupKey{sideBits: math.Float64bits(from.Side), off: off}
			mb := m2l[key]
			if mb == nil {
				mb = &M2LBatch{Side: from.Side, Level: from.Level(), Off: off}
				m2l[key] = mb
				m2lKeys = append(m2lKeys, key)
			}
			e.Batched = true
			mb.Edges = append(mb.Edges, BatchEdge{From: int32(i), Out: int32(j), To: e.To})
			mb.Offs = append(mb.Offs, off)
			if n := len(mb.Srcs); n == 0 || mb.Srcs[n-1] != int32(i) {
				mb.Srcs = append(mb.Srcs, int32(i)) // nodes are walked in id order
			}
		}
	}
	// Deterministic batch order: by level (coarse first), then offset.
	sort.Slice(m2lKeys, func(a, c int) bool {
		ka, kc := m2lKeys[a], m2lKeys[c]
		if m2l[ka].Level != m2l[kc].Level {
			return m2l[ka].Level < m2l[kc].Level
		}
		if ka.off.DX != kc.off.DX {
			return ka.off.DX < kc.off.DX
		}
		if ka.off.DY != kc.off.DY {
			return ka.off.DY < kc.off.DY
		}
		return ka.off.DZ < kc.off.DZ
	})
	for bi, key := range m2lKeys {
		mb := m2l[key]
		b.M2L = append(b.M2L, *mb)
		for _, s := range mb.Srcs {
			b.SrcBatches[s] = append(b.SrcBatches[s], int32(bi))
		}
	}
	// Deterministic near-list order: by target.
	sort.Slice(b.P2P, func(a, c int) bool { return b.P2P[a].Target < b.P2P[c].Target })
	return b
}
