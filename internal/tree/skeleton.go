package tree

import (
	"fmt"

	"repro/internal/geom"
)

// Skeleton is the serializable shape of a built Tree: the domain cube, the
// Morton-order permutation the adaptive partitioning produced, and every
// box in BFS order. Together with the original (unsorted) points — which
// for spec-generated ensembles are re-derivable from the request seed — it
// reconstructs the Tree exactly, skipping the recursive octant
// partitioning. The persistent plan store spills this per plan.
type Skeleton struct {
	Domain geom.Cube
	// Perm[i] is the original index of reordered position i (Tree.Perm).
	Perm []int
	// Boxes lists every box in the Tree.Boxes BFS order.
	Boxes []SkeletonBox
}

// SkeletonBox is one box of a Skeleton. Center, side, parent and children
// are all derivable from the Index and the domain's side; Lo/Hi delimit the
// box's slice of the reordered point array.
type SkeletonBox struct {
	Index  geom.Index
	Lo, Hi int
}

// Skeleton extracts the serializable shape of the tree.
func (t *Tree) Skeleton() Skeleton {
	sk := Skeleton{
		Domain: t.Domain,
		Perm:   append([]int(nil), t.Perm...),
		Boxes:  make([]SkeletonBox, len(t.Boxes)),
	}
	for i, b := range t.Boxes {
		sk.Boxes[i] = SkeletonBox{Index: b.Index, Lo: b.Lo, Hi: b.Hi}
	}
	return sk
}

// FromSkeleton reconstructs the Tree of pts from a skeleton previously
// produced by (*Tree).Skeleton on the same ensemble. pts is the ensemble in
// its original (caller) order; the skeleton's permutation re-derives the
// Morton-sorted point array without re-partitioning. Every structural claim
// of the skeleton is validated — a corrupt record must surface as an error,
// never as a panic or a silently wrong tree.
func FromSkeleton(pts []geom.Point, sk Skeleton) (*Tree, error) {
	n := len(pts)
	if len(sk.Perm) != n {
		return nil, fmt.Errorf("tree: skeleton permutation has %d entries for %d points", len(sk.Perm), n)
	}
	if len(sk.Boxes) == 0 {
		return nil, fmt.Errorf("tree: skeleton has no boxes")
	}
	seen := make([]bool, n)
	for _, p := range sk.Perm {
		if p < 0 || p >= n || seen[p] {
			return nil, fmt.Errorf("tree: skeleton permutation is not a permutation of %d points", n)
		}
		seen[p] = true
	}
	t := &Tree{
		Domain: sk.Domain,
		Pts:    make([]geom.Point, n),
		Perm:   append([]int(nil), sk.Perm...),
		byKey:  make(map[uint64]*Box, len(sk.Boxes)),
	}
	c := sk.Domain.Center()
	for i, p := range sk.Perm {
		t.Pts[i] = pts[p].Sub(c)
	}
	root := sk.Boxes[0]
	if root.Index != geom.Root || root.Lo != 0 || root.Hi != n {
		return nil, fmt.Errorf("tree: skeleton root is %v [%d,%d), want %v [0,%d)",
			root.Index, root.Lo, root.Hi, geom.Root, n)
	}
	for i, sb := range sk.Boxes {
		if !sb.Index.Valid() {
			return nil, fmt.Errorf("tree: skeleton box %d has invalid index %v", i, sb.Index)
		}
		if sb.Lo < 0 || sb.Hi > n || sb.Lo >= sb.Hi {
			return nil, fmt.Errorf("tree: skeleton box %d has bad range [%d,%d)", i, sb.Lo, sb.Hi)
		}
		if _, dup := t.byKey[sb.Index.Key()]; dup {
			return nil, fmt.Errorf("tree: skeleton repeats box %v", sb.Index)
		}
		b := newBox(sb.Index, sk.Domain.Side, sb.Lo, sb.Hi)
		b.Seq = i
		if i > 0 {
			parent := t.byKey[sb.Index.Parent().Key()]
			if parent == nil {
				return nil, fmt.Errorf("tree: skeleton box %v has no parent (not BFS order?)", sb.Index)
			}
			o := sb.Index.Octant()
			if parent.Children[o] != nil {
				return nil, fmt.Errorf("tree: skeleton repeats octant %d of %v", o, parent.Index)
			}
			if sb.Lo < parent.Lo || sb.Hi > parent.Hi {
				return nil, fmt.Errorf("tree: skeleton box %v range [%d,%d) outside parent [%d,%d)",
					sb.Index, sb.Lo, sb.Hi, parent.Lo, parent.Hi)
			}
			b.Parent = parent
			parent.Children[o] = b
			parent.NChildren++
		}
		if i == 0 {
			t.Root = b
		}
		t.Boxes = append(t.Boxes, b)
		t.byKey[sb.Index.Key()] = b
		if b.Level() > t.MaxLevel {
			t.MaxLevel = b.Level()
		}
	}
	for _, b := range t.Boxes {
		if b.IsLeaf() {
			t.Leaves = append(t.Leaves, b)
		}
	}
	return t, nil
}
