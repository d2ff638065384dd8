// Package tree builds the adaptive dual-tree decomposition of the FMM: one
// octree for the source ensemble and one for the target ensemble over the
// shared domain cube, with empty children pruned and refinement stopping at
// a point-count threshold (the paper uses 60). It also computes, for every
// target box, the four interaction lists of the adaptive FMM and the
// pruning of target sub-trees that are well-separated from the entire
// source tree (paper, Section II).
package tree

import (
	"fmt"

	"repro/internal/geom"
)

// Box is one node of an octree. Leaf boxes own a contiguous range of the
// tree's reordered point array.
type Box struct {
	Index  geom.Index
	Center geom.Point
	Side   float64

	Parent    *Box
	Children  [8]*Box
	NChildren int

	// Lo and Hi delimit the points of this box (leaves and internal boxes
	// alike; an internal box spans its descendants).
	Lo, Hi int

	// Seq is the position of the box in Tree.Boxes (BFS order).
	Seq int

	// Pruned marks a target box whose subtree is well-separated from the
	// whole source tree; evaluation stops here and the local expansion is
	// evaluated directly at every point below (ref [11] of the paper).
	Pruned bool
}

// IsLeaf reports whether the box has no children.
func (b *Box) IsLeaf() bool { return b.NChildren == 0 }

// NPoints returns the number of points in the box.
func (b *Box) NPoints() int { return b.Hi - b.Lo }

// Level returns the tree level of the box.
func (b *Box) Level() int { return int(b.Index.Level) }

func (b *Box) String() string {
	return fmt.Sprintf("box %v [%d,%d)", b.Index, b.Lo, b.Hi)
}

// Tree is an adaptive octree over one ensemble.
type Tree struct {
	Domain geom.Cube
	Root   *Box
	// Boxes lists every box in BFS order (coarse levels first).
	Boxes []*Box
	// Leaves lists the leaf boxes.
	Leaves []*Box
	// Pts is the reordered ensemble; Perm[i] is the original index of
	// reordered position i.
	Pts  []geom.Point
	Perm []int
	// MaxLevel is the deepest level with boxes.
	MaxLevel int

	byKey map[uint64]*Box
}

// Threshold is the paper's refinement threshold.
const Threshold = 60

// MaxDepth is the deepest level a box is split to, whatever it holds:
// coincident (or closer than 2^-15 of the domain) points cannot be
// separated by halving, and geom.Index.Key holds the level in four bits.
const MaxDepth = 15

// Build constructs the adaptive octree of the points over the domain,
// refining until each leaf holds at most threshold points or sits at
// MaxDepth.
func Build(pts []geom.Point, domain geom.Cube, threshold int) *Tree {
	if threshold < 1 {
		panic("tree: threshold must be at least 1")
	}
	t := &Tree{
		Domain: domain,
		Pts:    append([]geom.Point(nil), pts...),
		Perm:   make([]int, len(pts)),
		byKey:  make(map[uint64]*Box),
	}
	for i := range t.Perm {
		t.Perm[i] = i
	}
	rootCube := domain
	t.Root = &Box{
		Index:  geom.Root,
		Center: rootCube.Center(),
		Side:   rootCube.Side,
		Lo:     0,
		Hi:     len(pts),
	}
	scratchP := make([]geom.Point, len(pts))
	scratchI := make([]int, len(pts))
	t.split(t.Root, threshold, scratchP, scratchI)
	// BFS numbering.
	queue := []*Box{t.Root}
	for len(queue) > 0 {
		b := queue[0]
		queue = queue[1:]
		b.Seq = len(t.Boxes)
		t.Boxes = append(t.Boxes, b)
		t.byKey[b.Index.Key()] = b
		if b.Level() > t.MaxLevel {
			t.MaxLevel = b.Level()
		}
		if b.IsLeaf() {
			t.Leaves = append(t.Leaves, b)
			continue
		}
		for _, c := range b.Children {
			if c != nil {
				queue = append(queue, c)
			}
		}
	}
	return t
}

// split recursively partitions box b.
func (t *Tree) split(b *Box, threshold int, scratchP []geom.Point, scratchI []int) {
	if b.NPoints() <= threshold || b.Level() >= MaxDepth {
		return
	}
	// Bucket the points of b by octant with a stable counting pass.
	var count [8]int
	for i := b.Lo; i < b.Hi; i++ {
		count[b.Index.ChildContaining(t.Domain, t.Pts[i])]++
	}
	var start [8]int
	for o := 1; o < 8; o++ {
		start[o] = start[o-1] + count[o-1]
	}
	pos := start
	for i := b.Lo; i < b.Hi; i++ {
		o := b.Index.ChildContaining(t.Domain, t.Pts[i])
		scratchP[b.Lo+pos[o]] = t.Pts[i]
		scratchI[b.Lo+pos[o]] = t.Perm[i]
		pos[o]++
	}
	copy(t.Pts[b.Lo:b.Hi], scratchP[b.Lo:b.Hi])
	copy(t.Perm[b.Lo:b.Hi], scratchI[b.Lo:b.Hi])
	// Create non-empty children and recurse.
	for o := 0; o < 8; o++ {
		if count[o] == 0 {
			continue
		}
		ci := b.Index.Child(o)
		cc := ci.Cube(t.Domain)
		c := &Box{
			Index:  ci,
			Center: cc.Center(),
			Side:   cc.Side,
			Parent: b,
			Lo:     b.Lo + start[o],
			Hi:     b.Lo + start[o] + count[o],
		}
		b.Children[o] = c
		b.NChildren++
		t.split(c, threshold, scratchP, scratchI)
	}
}

// Lookup returns the box with the given index, or nil.
func (t *Tree) Lookup(ix geom.Index) *Box {
	return t.byKey[ix.Key()]
}

// Points returns the reordered points of box b.
func (t *Tree) Points(b *Box) []geom.Point { return t.Pts[b.Lo:b.Hi] }

// Lists holds the four adaptive-FMM interaction lists of one target box
// with respect to a source tree. Entries reference boxes of the source
// tree.
type Lists struct {
	// L1: leaf source boxes not well-separated from this (leaf) target box;
	// handled by S->T.
	L1 []*Box
	// L2: same-level source boxes well-separated from the target box whose
	// parents are not well-separated from the target parent; handled by the
	// plane-wave pipeline (advanced FMM) or M->L (basic FMM).
	L2 []*Box
	// L3: source boxes (descendants of near boxes of a leaf target) that
	// are well-separated from the target box but whose parents are not;
	// handled by M->T.
	L3 []*Box
	// L4: leaf source boxes, coarser than the target, well-separated from
	// the target box but not from its parent; handled by S->L.
	L4 []*Box
}

// DualLists computes the interaction lists of every target box against the
// source tree. The result is indexed by target Box.Seq. Target boxes whose
// near set becomes empty are marked Pruned: no list entries are produced
// below them and their local expansion is final.
func DualLists(target, source *Tree) []Lists {
	lists := make([]Lists, len(target.Boxes))
	// near[seq] holds the source boxes adjacent to the target box: same
	// level boxes still refined in step, plus coarser source leaves.
	near := make([][]*Box, len(target.Boxes))
	near[target.Root.Seq] = []*Box{source.Root}
	for _, bt := range target.Boxes {
		if bt.Parent != nil && bt.Parent.Pruned {
			bt.Pruned = true
			continue
		}
		nr := near[bt.Seq]
		if bt.Parent != nil && len(nr) == 0 {
			// Well-separated from the entire source tree: prune the
			// subtree (the paper's non-leaf target pruning).
			bt.Pruned = true
			continue
		}
		if bt.IsLeaf() || bt.Pruned {
			// Refine the near set fully: descend into non-leaf members.
			ls := &lists[bt.Seq]
			for _, s := range nr {
				refineLeafNear(bt, s, ls)
			}
			continue
		}
		// Push the near set down to each child.
		for _, ct := range bt.Children {
			if ct == nil {
				continue
			}
			var cn []*Box
			ls := &lists[ct.Seq]
			for _, s := range nr {
				if s.IsLeaf() && s.Level() <= bt.Level() {
					// Coarse source leaf carried down from an ancestor.
					if geom.Adjacent(ct.Index, s.Index) {
						cn = append(cn, s)
					} else {
						// Well-separated from ct but it was adjacent to
						// bt: list 4.
						ls.L4 = append(ls.L4, s)
					}
					continue
				}
				// Same-level source box (level == bt.Level()): consider its
				// children against ct.
				for _, cs := range s.Children {
					if cs == nil {
						continue
					}
					if !cs.Index.WellSeparated(ct.Index) {
						cn = append(cn, cs)
					} else {
						ls.L2 = append(ls.L2, cs)
					}
				}
				if s.IsLeaf() {
					// Same-level source leaf: no children to classify; it
					// stays near if adjacent, else list 4.
					if geom.Adjacent(ct.Index, s.Index) {
						cn = append(cn, s)
					} else {
						ls.L4 = append(ls.L4, s)
					}
				}
			}
			near[ct.Seq] = cn
		}
		near[bt.Seq] = nil
	}
	return lists
}

// refineLeafNear descends from the near source box s of leaf (or pruned)
// target bt, producing list-1 and list-3 entries.
func refineLeafNear(bt *Box, s *Box, ls *Lists) {
	if !geom.Adjacent(bt.Index, s.Index) {
		// Well-separated from bt, but s's parent was adjacent: list 3.
		ls.L3 = append(ls.L3, s)
		return
	}
	if s.IsLeaf() {
		ls.L1 = append(ls.L1, s)
		return
	}
	// Only descend into source boxes at the target's level or deeper; a
	// coarser adjacent non-leaf is refined level by level.
	for _, c := range s.Children {
		if c != nil {
			refineLeafNear(bt, c, ls)
		}
	}
}
