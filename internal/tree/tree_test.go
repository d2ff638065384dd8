package tree

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/points"
)

func buildPair(t *testing.T, n int, dist points.Distribution, threshold int) (src, tgt *Tree) {
	t.Helper()
	sp := points.Generate(dist, n, 1)
	tp := points.Generate(dist, n, 2)
	dom := geom.BoundingCube(sp, tp)
	return Build(sp, dom, threshold), Build(tp, dom, threshold)
}

func TestBuildPartitionInvariants(t *testing.T) {
	pts := points.Generate(points.Cube, 5000, 3)
	dom := geom.BoundingCube(pts)
	tr := Build(pts, dom, 25)
	// Every box's cube contains its points.
	for _, b := range tr.Boxes {
		cube := b.Index.Cube(dom)
		for _, p := range tr.Points(b) {
			if !cube.Contains(p) {
				t.Fatalf("%v does not contain %v", b, p)
			}
		}
	}
	// Leaves respect the threshold, except where refinement cannot separate
	// coincident points (not the case for random input).
	for _, l := range tr.Leaves {
		if l.NPoints() > 25 {
			t.Errorf("leaf %v has %d > 25 points", l, l.NPoints())
		}
		if l.NPoints() == 0 {
			t.Errorf("empty leaf %v survived pruning", l)
		}
	}
	// Leaf ranges partition the ensemble.
	total := 0
	for _, l := range tr.Leaves {
		total += l.NPoints()
	}
	if total != 5000 {
		t.Errorf("leaves cover %d of 5000 points", total)
	}
	// Perm is a permutation and maps reordered points back to originals.
	seen := make([]bool, 5000)
	for i, orig := range tr.Perm {
		if seen[orig] {
			t.Fatalf("Perm repeats %d", orig)
		}
		seen[orig] = true
		if tr.Pts[i] != pts[orig] {
			t.Fatalf("Pts[%d] != pts[Perm[%d]]", i, i)
		}
	}
}

func TestBuildChildRanges(t *testing.T) {
	pts := points.Generate(points.Sphere, 3000, 4)
	dom := geom.BoundingCube(pts)
	tr := Build(pts, dom, 40)
	for _, b := range tr.Boxes {
		if b.IsLeaf() {
			continue
		}
		// Children ranges tile the parent range in octant order.
		lo := b.Lo
		n := 0
		for o := 0; o < 8; o++ {
			c := b.Children[o]
			if c == nil {
				continue
			}
			if c.Lo < lo {
				t.Fatalf("%v: child %d range [%d,%d) overlaps predecessor", b, o, c.Lo, c.Hi)
			}
			lo = c.Hi
			n += c.NPoints()
			if c.Parent != b {
				t.Fatalf("%v: child parent link broken", b)
			}
		}
		if n != b.NPoints() {
			t.Fatalf("%v: children cover %d of %d points", b, n, b.NPoints())
		}
	}
}

func TestBFSOrderAndLookup(t *testing.T) {
	pts := points.Generate(points.Cube, 2000, 5)
	dom := geom.BoundingCube(pts)
	tr := Build(pts, dom, 30)
	prev := -1
	for i, b := range tr.Boxes {
		if b.Seq != i {
			t.Fatalf("Seq mismatch at %d", i)
		}
		if b.Level() < prev {
			t.Fatalf("BFS order violated at %d", i)
		}
		prev = b.Level()
		if tr.Lookup(b.Index) != b {
			t.Fatalf("Lookup(%v) failed", b.Index)
		}
	}
}

func TestUniformCubeTreeIsUniform(t *testing.T) {
	// The paper: cube data produces dual trees where every leaf has the same
	// depth (with enough points per box).
	pts := points.Generate(points.Cube, 16000, 6)
	dom := geom.BoundingCube(pts)
	tr := Build(pts, dom, 60)
	depth := tr.Leaves[0].Level()
	for _, l := range tr.Leaves {
		if l.Level() != depth {
			t.Errorf("leaf depth %d != %d: cube tree should be uniform", l.Level(), depth)
		}
	}
}

func TestSphereTreeIsAdaptive(t *testing.T) {
	// Sphere-surface data leaves the interior empty: the tree must be
	// non-uniform (this is what lengthens the critical path in the paper).
	pts := points.Generate(points.Sphere, 30000, 7)
	dom := geom.BoundingCube(pts)
	tr := Build(pts, dom, 60)
	minD, maxD := 99, 0
	for _, l := range tr.Leaves {
		if l.Level() < minD {
			minD = l.Level()
		}
		if l.Level() > maxD {
			maxD = l.Level()
		}
	}
	if minD == maxD {
		t.Errorf("sphere tree is uniform (depth %d); expected adaptivity", minD)
	}
	// And empty octants must be pruned: total box count well below the
	// complete octree of the max depth.
	full := 0
	for l := 0; l <= tr.MaxLevel; l++ {
		full += 1 << (3 * uint(l))
	}
	if len(tr.Boxes) >= full {
		t.Errorf("no pruning: %d boxes vs %d complete", len(tr.Boxes), full)
	}
}

// coverage checks the fundamental correctness property of the dual lists:
// for every leaf target box, every source leaf is accounted for exactly once
// along its ancestor chain, through exactly one of L1, L2, L3, L4 (of the
// leaf or of an ancestor).
func TestDualListsCoverEverySourceExactlyOnce(t *testing.T) {
	for _, dist := range []points.Distribution{points.Cube, points.Sphere} {
		src, tgt := buildPair(t, 4000, dist, 35)
		lists := DualLists(tgt, src)

		// For each source leaf, precompute its ancestor set (including
		// itself) so "covered by list entry e" is: e is the leaf, or e is an
		// ancestor, or e is a descendant (for L1/L3 descendants are
		// impossible per construction; L2 entries can be ancestors of many
		// leaves).
		for _, tl := range tgt.Leaves {
			if tl.Pruned {
				continue
			}
			// Walk the ancestor chain collecting list entries.
			counts := make(map[*Box]int) // source leaf -> times covered
			var mark func(e *Box)
			mark = func(e *Box) {
				if e.IsLeaf() {
					counts[e]++
					return
				}
				for _, c := range e.Children {
					if c != nil {
						mark(c)
					}
				}
			}
			for b := tl; b != nil; b = b.Parent {
				ls := lists[b.Seq]
				for _, e := range ls.L1 {
					mark(e)
				}
				for _, e := range ls.L2 {
					mark(e)
				}
				for _, e := range ls.L3 {
					mark(e)
				}
				for _, e := range ls.L4 {
					mark(e)
				}
			}
			for _, sl := range src.Leaves {
				if counts[sl] != 1 {
					t.Fatalf("%v: target leaf %v covers source leaf %v %d times",
						dist, tl.Index, sl.Index, counts[sl])
				}
			}
			// Only check a few leaves per distribution to keep the test fast.
			if tl.Seq%17 != 0 {
				continue
			}
		}
	}
}

func TestDualListsSeparationProperties(t *testing.T) {
	src, tgt := buildPair(t, 6000, points.Sphere, 35)
	lists := DualLists(tgt, src)
	for _, bt := range tgt.Boxes {
		ls := lists[bt.Seq]
		if len(ls.L1)+len(ls.L3) > 0 && !bt.IsLeaf() && !bt.Pruned {
			t.Errorf("%v: non-leaf target with L1/L3", bt.Index)
		}
		for _, e := range ls.L1 {
			if !e.IsLeaf() {
				t.Errorf("L1 entry %v is not a leaf", e.Index)
			}
			if !geom.Adjacent(bt.Index, e.Index) {
				t.Errorf("L1 entry %v not adjacent to %v", e.Index, bt.Index)
			}
		}
		for _, e := range ls.L2 {
			if e.Level() != bt.Level() {
				t.Errorf("L2 entry %v not at level of %v", e.Index, bt.Index)
			}
			if !e.Index.WellSeparated(bt.Index) {
				t.Errorf("L2 entry %v not well separated from %v", e.Index, bt.Index)
			}
			if e.Parent != nil && bt.Parent != nil &&
				e.Parent.Index.WellSeparated(bt.Parent.Index) {
				t.Errorf("L2 entry %v: parents already well separated", e.Index)
			}
		}
		for _, e := range ls.L3 {
			if geom.Adjacent(bt.Index, e.Index) {
				t.Errorf("L3 entry %v adjacent to %v", e.Index, bt.Index)
			}
			if e.Parent != nil && !geom.Adjacent(bt.Index, e.Parent.Index) {
				t.Errorf("L3 entry %v: parent not adjacent", e.Index)
			}
			if e.Level() <= bt.Level() {
				t.Errorf("L3 entry %v not finer than %v", e.Index, bt.Index)
			}
		}
		for _, e := range ls.L4 {
			if !e.IsLeaf() {
				t.Errorf("L4 entry %v is not a leaf", e.Index)
			}
			if geom.Adjacent(bt.Index, e.Index) {
				t.Errorf("L4 entry %v adjacent to %v", e.Index, bt.Index)
			}
			if bt.Parent != nil && !geom.Adjacent(bt.Parent.Index, e.Index) {
				t.Errorf("L4 entry %v: target parent not adjacent", e.Index)
			}
		}
	}
}

func TestIdenticalEnsemblesHaveEmptyL3L4OnUniformData(t *testing.T) {
	// Uniform cube data with identical ensembles: all leaves at one depth,
	// so only L1 and L2 appear (paper Table II has no S->L / M->T rows).
	pts := points.Generate(points.Cube, 16000, 8)
	dom := geom.BoundingCube(pts)
	tr := Build(pts, dom, 60)
	lists := DualLists(tr, tr)
	for _, b := range tr.Boxes {
		if len(lists[b.Seq].L3) != 0 || len(lists[b.Seq].L4) != 0 {
			t.Fatalf("uniform identical ensembles produced L3/L4 at %v", b.Index)
		}
	}
}

func TestDisjointEnsemblesPrune(t *testing.T) {
	// Source points in one corner octant, targets in the opposite corner:
	// most of the target tree is well-separated from the whole source tree
	// and must be pruned.
	rng := rand.New(rand.NewSource(9))
	sp := make([]geom.Point, 3000)
	tp := make([]geom.Point, 3000)
	for i := range sp {
		sp[i] = geom.Point{X: rng.Float64() * 0.2, Y: rng.Float64() * 0.2, Z: rng.Float64() * 0.2}
		tp[i] = geom.Point{X: 0.8 + rng.Float64()*0.2, Y: 0.8 + rng.Float64()*0.2, Z: 0.8 + rng.Float64()*0.2}
	}
	dom := geom.BoundingCube(sp, tp)
	src := Build(sp, dom, 30)
	tgt := Build(tp, dom, 30)
	DualLists(tgt, src)
	pruned := 0
	for _, b := range tgt.Boxes {
		if b.Pruned {
			pruned++
		}
	}
	if pruned == 0 {
		t.Error("no target boxes pruned for disjoint corner ensembles")
	}
}

func TestBuildPropertyThresholdRespected(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 200 + rng.Intn(2000)
		th := 5 + rng.Intn(60)
		pts := points.Generate(points.Distribution(rng.Intn(3)), n, seed)
		dom := geom.BoundingCube(pts)
		tr := Build(pts, dom, th)
		total := 0
		for _, l := range tr.Leaves {
			if l.NPoints() > th || l.NPoints() == 0 {
				return false
			}
			total += l.NPoints()
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestMortonKeysUnique(t *testing.T) {
	pts := points.Generate(points.Cube, 8000, 10)
	dom := geom.BoundingCube(pts)
	tr := Build(pts, dom, 20)
	seen := make(map[uint64]bool, len(tr.Boxes))
	for _, b := range tr.Boxes {
		k := b.Index.Key()
		if seen[k] {
			t.Fatalf("duplicate key for %v", b.Index)
		}
		seen[k] = true
	}
}
