// Package dag builds the explicit DAG of an HMM evaluation (paper, Section
// IV): nodes are the expansions (and the source/target point bundles), edges
// are the operator applications that move influence from the source ensemble
// through the approximations to the targets. The explicit DAG is consumed by
// the distribution policy, by the LCO-based executor, by the discrete-event
// simulator, and by the census benchmarks reproducing Tables I and II.
package dag

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/tree"
)

// NodeKind enumerates the six DAG node classes of Table I. The subscripts on
// the two intermediate classes indicate the tree the node is associated
// with: Is lives with a source box, It with a target box.
type NodeKind uint8

// Node classes.
const (
	NodeS  NodeKind = iota // source point bundle of a source leaf
	NodeM                  // multipole expansion of a source box
	NodeIs                 // outgoing (source-side) plane-wave expansions
	NodeIt                 // incoming (target-side) plane-wave expansions
	NodeL                  // local expansion of a target box
	NodeT                  // target point bundle of a target leaf
	NumNodeKinds
)

var nodeKindNames = [NumNodeKinds]string{"S", "M", "Is", "It", "L", "T"}

func (k NodeKind) String() string {
	if int(k) < len(nodeKindNames) {
		return nodeKindNames[k]
	}
	return fmt.Sprintf("NodeKind(%d)", int(k))
}

// OpKind enumerates the eleven FMM operators (the eight basic operators of
// Fig. 1c plus the three merge-and-shift operators).
type OpKind uint8

// Operator classes.
const (
	OpS2M OpKind = iota
	OpM2M
	OpM2L
	OpL2L
	OpL2T
	OpM2T
	OpS2L
	OpS2T
	OpM2I
	OpI2I
	OpI2L
	NumOpKinds
)

var opKindNames = [NumOpKinds]string{
	"S→M", "M→M", "M→L", "L→L", "L→T", "M→T", "S→L", "S→T", "M→I", "I→I", "I→L",
}

func (o OpKind) String() string {
	if int(o) < len(opKindNames) {
		return opKindNames[o]
	}
	return fmt.Sprintf("OpKind(%d)", int(o))
}

// Edge is one dependence of the DAG: when the owning node triggers, Op is
// applied to its payload and the result is delivered to node To. Box
// centres are root-relative (package tree), so every M->M, M->L, L->L and
// I->I lands on the kernel's lattice; one off it panics in the kernel.
type Edge struct {
	To int32
	Op OpKind
	// Dir is the plane-wave direction of an I->I transfer edge (-1
	// otherwise).
	Dir int8
	// DirMask is the set of directions carried by M->I edges, merge I->I
	// edges and distribution I->I edges (bit d set = direction d).
	DirMask uint8
	// FromMerged marks an I->I edge reading the sender's merged/shared
	// child-level waves rather than its own-level waves.
	FromMerged bool
	// ToMerged marks an I->I edge writing into the receiver's
	// merged/shared child-level waves rather than its own-level
	// accumulation.
	ToMerged bool
	// Bytes is the payload size transferred along the edge, for the network
	// model and the Table II census.
	Bytes int32
}

// Node is one vertex of the explicit DAG.
type Node struct {
	ID   int32
	Kind NodeKind
	// Box is the tree box the node belongs to (source tree for S, M, Is;
	// target tree for It, L, T).
	Box *tree.Box
	// In is the number of inputs that must arrive before the node
	// triggers.
	In int32
	// Out lists the dependents.
	Out []Edge
	// Bytes is the size of the node's payload, for Table I.
	Bytes int32
	// Locality is written by dist.MinComm.Assign (simulator, traffic
	// measures); the executors place through dist.MinComm.Homes instead.
	Locality int32
	// OwnMask is the set of directions this node carries at its own level:
	// for Is, the outgoing waves it computes from its multipole; for It,
	// the incoming waves it accumulates for its own local expansion.
	OwnMask uint8
	// MergedMask is the set of directions of the node's child-level waves:
	// for Is, the merged outgoing waves of its children; for It, the
	// shared incoming waves it receives once on behalf of all its children
	// and then distributes (the two halves of merge-and-shift).
	MergedMask uint8
}

// Level returns the tree level of the node's box.
func (n *Node) Level() int { return n.Box.Level() }

// Method selects the HMM variant the DAG encodes; DASHMM is generic over
// this choice (paper, Section I).
type Method uint8

// Methods.
const (
	// Advanced is the merge-and-shift FMM evaluated in the paper: list 2 is
	// carried by directional plane-wave expansions through M->I, I->I, I->L.
	Advanced Method = iota
	// Basic is the eight-operator FMM of Fig. 1c: list 2 is M->L.
	Basic
	// BarnesHut uses only multipole expansions and a multipole-acceptance
	// criterion; no local expansions.
	BarnesHut
)

func (m Method) String() string {
	switch m {
	case Advanced:
		return "fmm-advanced"
	case Basic:
		return "fmm-basic"
	case BarnesHut:
		return "barnes-hut"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Config controls DAG construction.
type Config struct {
	Method Method
	// Theta is the Barnes–Hut opening angle (ignored by the FMM methods).
	// Zero means the default 0.5.
	Theta float64
}

// Graph is the explicit DAG plus the lookup tables connecting it back to
// the dual tree.
type Graph struct {
	Method Method
	Source *tree.Tree
	Target *tree.Tree
	Kernel kernel.Kernel
	Nodes  []Node

	// Per-box node ids, indexed by Box.Seq; -1 where the node does not
	// exist.
	SOf, MOf, IsOf []int32 // source tree
	ItOf, LOf, TOf []int32 // target tree

	// EdgeCount tallies edges per operator.
	EdgeCount [NumOpKinds]int64
}

// node returns a pointer to node id.
func (g *Graph) node(id int32) *Node { return &g.Nodes[id] }

// addNode appends a node and returns its id.
func (g *Graph) addNode(kind NodeKind, box *tree.Box, bytes int) int32 {
	id := int32(len(g.Nodes))
	g.Nodes = append(g.Nodes, Node{ID: id, Kind: kind, Box: box, Bytes: int32(bytes), Locality: -1})
	return id
}

// addEdge links from -> to and bumps the receiver's input count.
func (g *Graph) addEdge(from int32, e Edge) {
	n := g.node(from)
	n.Out = append(n.Out, e)
	g.node(e.To).In++
	g.EdgeCount[e.Op]++
}

// NumEdges returns the total edge count.
func (g *Graph) NumEdges() int64 {
	var n int64
	for _, c := range g.EdgeCount {
		n += c
	}
	return n
}

// Roots returns the ids of nodes with no inputs (the initially runnable
// tasks: S nodes, plus any expansion with no dependence).
func (g *Graph) Roots() []int32 {
	var r []int32
	for i := range g.Nodes {
		if g.Nodes[i].In == 0 {
			r = append(r, g.Nodes[i].ID)
		}
	}
	return r
}
