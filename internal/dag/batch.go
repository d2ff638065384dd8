package dag

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/geom"
	"repro/internal/kernel"
)

// Batch descriptors (DESIGN.md, "Batched execution"): the graph's dense
// far-field edges are aggregated at plan-build time by the table they apply
// — the list-2 M->L edges one batch per (level, side, lattice offset), the
// plane-wave M->I and I->L edges per (class, level), cut into runs of at
// most WaveBatchSources sources that the executor walks direction by
// direction — and the near-field S->T edges by their target leaf. A far
// batch fires, on each rank hosting targets of it, once every source feeding
// those targets has triggered, replacing many per-edge operator applications
// with blocked multi-RHS applies. Every edge of the three far classes is a
// member of exactly one far batch (FarBatched): box centres are
// root-relative (package tree), so every list-2 offset is on the kernel's
// lattice. A near list has nothing to wait for — every rank holds every
// source point and, once a run has its charges, every charge — so the AMT
// executors run it as one task of its target leaf. Either way it is an
// execution strategy, never a semantics change.

// BatchEdge locates one member edge of a batch: out-edge Out of node From,
// delivering into To (denormalized from Nodes[From].Out[Out].To so the
// executor avoids a double indirection per edge).
type BatchEdge struct {
	From int32
	Out  int32
	To   int32
}

// WaveBatchSources bounds the sources of one plane-wave batch. The batch
// fires when its last source triggers, and its I->L members then wait for
// the whole batch before their L nodes move on: a bound keeps that tail
// short and lets a level's batches run on different workers, while 32
// sources still fill two 16-wide blocks per direction.
const WaveBatchSources = 32

// FarBatch groups far-field edges one batch task applies together, in
// source-id order.
//
//   - Op OpM2L: same-level list-2 edges sharing one cached dense operator;
//     every edge has the same offset, so the kernel's multi-RHS apply sees
//     one maximal run.
//   - Op OpM2I or OpI2L: the M->I edges (sources: M nodes) or I->L edges
//     (sources: It nodes) of one level, one edge per source. Their tables
//     are per (direction, level), so the task walks the six directions from
//     First and applies each one's table to every member that carries it.
type FarBatch struct {
	Op OpKind
	// Level is the tree level of the sources.
	Level int
	// Side is the source box side of an M->L batch; Offs holds its one
	// offset repeated per edge, in the layout kernel.M2LBatch consumes
	// (kept materialized so the hot path never allocates).
	Side float64
	Offs []kernel.M2LOffset
	// First is the direction a plane-wave batch starts its walk at. A
	// level's tables are built on first use; spreading the batches' first
	// directions over the six lets concurrent batches build different ones.
	First geom.Direction
	// Edges are the members, in source-id order.
	Edges []BatchEdge
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
	Far []FarBatch
	P2P []P2PBatch
}

// m2lGroupKey identifies one M->L batch.
type m2lGroupKey struct {
	sideBits uint64
	off      kernel.M2LOffset
}

// waveGroupKey identifies the plane-wave edges of one class and level,
// before they are cut into batches.
type waveGroupKey struct {
	op    OpKind
	level int
}

// FarBatched reports whether the edges of op are far-batch members: every
// M->L, M->I and I->L edge of a graph is in exactly one FarBatch.
func FarBatched(op OpKind) bool { return op == OpM2L || op == OpM2I || op == OpI2L }

// BuildBatches aggregates the graph's list-2, plane-wave and near-field
// edges. It reads the graph and never writes it, and it is deterministic
// (same graph, same descriptors). A list-2 edge off the kernel's lattice is
// a programming error and panics.
func BuildBatches(g *Graph, k kernel.Kernel) *Batches {
	b := &Batches{}

	// Far field: group list-2 edges by (side, offset), plane-wave edges by
	// (class, level). Near field: one list per target, a map from the
	// target to its index in b.P2P while the nodes are walked in id order.
	m2l := make(map[m2lGroupKey]*FarBatch)
	var m2lKeys []m2lGroupKey
	waves := make(map[waveGroupKey][]BatchEdge)
	var waveKeys []waveGroupKey
	near := make(map[int32]int)
	for i := range g.Nodes {
		n := &g.Nodes[i]
		for j := range n.Out {
			e := &n.Out[j]
			be := BatchEdge{From: int32(i), Out: int32(j), To: e.To}
			switch e.Op {
			case OpS2T:
				pi, ok := near[e.To]
				if !ok {
					pi = len(b.P2P)
					near[e.To] = pi
					b.P2P = append(b.P2P, P2PBatch{Target: e.To})
				}
				b.P2P[pi].Edges = append(b.P2P[pi].Edges, be)
			case OpM2I, OpI2L:
				key := waveGroupKey{op: e.Op, level: n.Level()}
				if _, ok := waves[key]; !ok {
					waveKeys = append(waveKeys, key)
				}
				waves[key] = append(waves[key], be) // one edge per source, in id order
			case OpM2L:
				from, to := n.Box, g.Nodes[e.To].Box
				off, onLattice := k.M2LOffsetOf(from.Center, to.Center, from.Side)
				if !onLattice {
					panic(fmt.Sprintf("dag: M->L edge %v -> %v: offset %v is off the list-2 lattice of boxes of side %g",
						from.Index, to.Index, to.Center.Sub(from.Center), from.Side))
				}
				key := m2lGroupKey{sideBits: math.Float64bits(from.Side), off: off}
				mb := m2l[key]
				if mb == nil {
					mb = &FarBatch{Op: OpM2L, Side: from.Side, Level: from.Level()}
					m2l[key] = mb
					m2lKeys = append(m2lKeys, key)
				}
				mb.Edges = append(mb.Edges, be) // nodes are walked in id order
				mb.Offs = append(mb.Offs, off)
			}
		}
	}
	// Deterministic batch order: M->L by level (coarse first), then offset;
	// then the plane-wave batches by class and level.
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
	for _, key := range m2lKeys {
		b.Far = append(b.Far, *m2l[key])
	}
	sort.Slice(waveKeys, func(a, c int) bool {
		ka, kc := waveKeys[a], waveKeys[c]
		if ka.op != kc.op {
			return ka.op < kc.op
		}
		return ka.level < kc.level
	})
	for _, key := range waveKeys {
		b.Far = append(b.Far, waveBatches(key, waves[key])...)
	}
	// Deterministic near-list order: by target.
	sort.Slice(b.P2P, func(a, c int) bool { return b.P2P[a].Target < b.P2P[c].Target })
	return b
}

// waveBatches cuts the plane-wave edges of one class and level into runs of
// near-equal length, at most WaveBatchSources sources each. Run c of n
// starts its direction walk at c·6/n.
func waveBatches(key waveGroupKey, edges []BatchEdge) []FarBatch {
	n := (len(edges) + WaveBatchSources - 1) / WaveBatchSources
	out := make([]FarBatch, n)
	for c := range out {
		lo, hi := c*len(edges)/n, (c+1)*len(edges)/n
		fb := &out[c]
		fb.Op, fb.Level = key.op, key.level
		fb.First = geom.Direction(c * geom.NumDirections / n)
		fb.Edges = edges[lo:hi:hi]
	}
	return out
}
