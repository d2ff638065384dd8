package dist

import (
	"testing"

	"repro/internal/dag"
	"repro/internal/geom"
	"repro/internal/kernel"
	"repro/internal/points"
	"repro/internal/tree"
)

func distGraph(t testing.TB) *dag.Graph {
	t.Helper()
	sp := points.Generate(points.Cube, 20000, 1)
	tp := points.Generate(points.Cube, 20000, 2)
	dom := geom.BoundingCube(sp, tp)
	src := tree.Build(sp, dom, 60)
	tgt := tree.Build(tp, dom, 60)
	lists := tree.DualLists(tgt, src)
	k := kernel.NewLaplace(3)
	k.Prepare(dom.Side, 7)
	return dag.Build(dag.Config{Method: dag.Advanced}, src, tgt, lists, k)
}

func TestAllPoliciesAssignEveryNode(t *testing.T) {
	g := distGraph(t)
	for _, L := range []int{1, 3, 8} {
		MinComm{}.Assign(g, L)
		for i := range g.Nodes {
			loc := g.Nodes[i].Locality
			if loc < 0 || loc >= int32(L) {
				t.Fatalf("L=%d: node %d assigned to %d", L, i, loc)
			}
		}
	}
}

// The paper's hard constraint: S/T bundles and leaf M/L expansions are
// pinned to the locality owning the underlying points.
func TestLeafPinningConstraint(t *testing.T) {
	g := distGraph(t)
	const L = 4
	ns := len(g.Source.Pts)
	nt := len(g.Target.Pts)
	MinComm{}.Assign(g, L)
	for i := range g.Nodes {
		n := &g.Nodes[i]
		var want int32 = -1
		switch {
		case n.Kind == dag.NodeS:
			want = owner(n.Box, ns, L)
		case n.Kind == dag.NodeT:
			want = owner(n.Box, nt, L)
		case n.Kind == dag.NodeM && n.Box.IsLeaf():
			want = owner(n.Box, ns, L)
		case n.Kind == dag.NodeL && n.Box.IsLeaf():
			want = owner(n.Box, nt, L)
		}
		if want >= 0 && n.Locality != want {
			t.Fatalf("%v node of leaf %v at locality %d, pinned owner is %d",
				n.Kind, n.Box.Index, n.Locality, want)
		}
	}
}

// MinComm moves the heaviest fan-in nodes, the target-side intermediates,
// off their box owner only where that saves bytes: it never crosses more
// than placing every node at the block owner of its box.
func TestPolicyTrafficOrdering(t *testing.T) {
	g := distGraph(t)
	const L = 8
	ns, nt := len(g.Source.Pts), len(g.Target.Pts)
	for i := range g.Nodes {
		n := &g.Nodes[i]
		switch n.Kind {
		case dag.NodeS, dag.NodeM, dag.NodeIs:
			n.Locality = owner(n.Box, ns, L)
		default:
			n.Locality = owner(n.Box, nt, L)
		}
	}
	block := RemoteBytes(g)
	MinComm{}.Assign(g, L)
	mincomm := RemoteBytes(g)
	t.Logf("%d localities: %d remote bytes at the box owners, %d under mincomm", L, block, mincomm)
	if mincomm > block {
		t.Errorf("mincomm (%d) worse than the box owners (%d)", mincomm, block)
	}
}

func TestSingleLocalityHasNoRemoteTraffic(t *testing.T) {
	g := distGraph(t)
	MinComm{}.Assign(g, 1)
	if b := RemoteBytes(g); b != 0 {
		t.Errorf("remote bytes %d with one locality", b)
	}
	if e := RemoteEdges(g); e != 0 {
		t.Errorf("remote edges %d with one locality", e)
	}
}

// TestOwnerEdgeCases pins down the degenerate inputs of the block
// distribution: an empty ensemble, more localities than points, and the
// clamp that keeps the last point range from spilling past the final
// locality.
func TestOwnerEdgeCases(t *testing.T) {
	// Zero points: every box (necessarily empty) belongs to locality 0.
	empty := &tree.Box{Lo: 0, Hi: 0}
	if o := owner(empty, 0, 4); o != 0 {
		t.Errorf("owner with zero points = %d, want 0", o)
	}

	// More localities than points: owners stay in range and keep the
	// contiguous block order.
	const total = 3
	const L = 8
	prev := int32(-1)
	for lo := 0; lo < total; lo++ {
		b := &tree.Box{Lo: lo, Hi: lo + 1}
		o := owner(b, total, L)
		if o < 0 || o >= L {
			t.Fatalf("owner(%d..%d, total=%d, L=%d) = %d out of range", lo, lo+1, total, L, o)
		}
		if o < prev {
			t.Fatalf("owner order violated with localities > points: %d after %d", o, prev)
		}
		prev = o
	}

	// Clamp at the last locality: a box whose midpoint sits at the end of
	// the point range (Lo == Hi == total happens for the sentinel range of
	// an empty trailing box) must clamp to L-1, not index past it.
	end := &tree.Box{Lo: total, Hi: total}
	if o := owner(end, total, L); o != L-1 {
		t.Errorf("owner at the range end = %d, want clamp to %d", o, L-1)
	}
	// The last real point also lands on the final locality when blocks
	// divide evenly.
	last := &tree.Box{Lo: 9, Hi: 10}
	if o := owner(last, 10, 5); o != 4 {
		t.Errorf("owner of the last point = %d, want 4", o)
	}

	// One locality swallows everything.
	for lo := 0; lo < 10; lo++ {
		if o := owner(&tree.Box{Lo: lo, Hi: lo + 1}, 10, 1); o != 0 {
			t.Fatalf("single locality: owner = %d", o)
		}
	}
}

func TestOwnerIsContiguousAndBalanced(t *testing.T) {
	g := distGraph(t)
	const L = 5
	// Leaf owners must be non-decreasing in tree (Morton) order and cover
	// all localities roughly evenly.
	counts := make([]int, L)
	prev := int32(0)
	for _, b := range g.Source.Leaves {
		o := owner(b, len(g.Source.Pts), L)
		if o < prev {
			t.Fatalf("owner order violated at %v: %d after %d", b.Index, o, prev)
		}
		prev = o
		counts[o] += b.NPoints()
	}
	total := len(g.Source.Pts)
	for l, c := range counts {
		frac := float64(c) / float64(total)
		if frac < 0.5/L || frac > 2.0/L {
			t.Errorf("locality %d owns %.2f of the points; want about %.2f", l, frac, 1.0/L)
		}
	}
}

func TestFailoverRoundRobinDeterministic(t *testing.T) {
	homes := []int32{0, 1, 2, 1, 3, 1, 0, 1}
	// Dead entries pick survivors[i % len(survivors)] by node index, so the
	// same failure scenario always lands the same assignment.
	want := []int32{0, 2, 2, 0, 3, 3, 0, 2}
	survivors := []int32{0, 2, 3}
	moved := Failover(homes, 1, survivors)
	if moved != 4 {
		t.Errorf("moved %d nodes, want 4", moved)
	}
	for i := range homes {
		if homes[i] != want[i] {
			t.Errorf("homes[%d] = %d, want %d", i, homes[i], want[i])
		}
	}
	// Same inputs, same assignment: recovery must be replayable.
	again := []int32{0, 1, 2, 1, 3, 1, 0, 1}
	Failover(again, 1, survivors)
	for i := range again {
		if again[i] != homes[i] {
			t.Fatalf("failover is not deterministic at %d: %d vs %d", i, again[i], homes[i])
		}
	}
}

func TestFailoverSpreadsLoad(t *testing.T) {
	const n = 999
	homes := make([]int32, n)
	for i := range homes {
		homes[i] = 2
	}
	survivors := []int32{0, 1, 3}
	if moved := Failover(homes, 2, survivors); moved != n {
		t.Fatalf("moved %d, want %d", moved, n)
	}
	counts := map[int32]int{}
	for _, h := range homes {
		counts[h]++
	}
	for _, s := range survivors {
		if c := counts[s]; c != n/len(survivors) {
			t.Errorf("survivor %d got %d nodes, want %d", s, c, n/len(survivors))
		}
	}
}

func TestFailoverLeavesSurvivorsAlone(t *testing.T) {
	homes := []int32{0, 3, 0, 3}
	if moved := Failover(homes, 1, []int32{0, 3}); moved != 0 {
		t.Errorf("moved %d nodes of a rank that owned nothing", moved)
	}
	for i, h := range homes {
		if h != []int32{0, 3, 0, 3}[i] {
			t.Fatalf("survivor-owned node %d reassigned to %d", i, h)
		}
	}
}

func TestFailoverPanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	expectPanic("no survivors", func() { Failover([]int32{1}, 1, nil) })
	expectPanic("dead in survivors", func() { Failover([]int32{1}, 1, []int32{0, 1}) })
}
