package dag

import (
	"math/bits"
	"testing"

	"repro/internal/geom"
	"repro/internal/kernel"
	"repro/internal/points"
	"repro/internal/tree"
)

func buildGraph(t testing.TB, method Method, dist points.Distribution, n, threshold int) *Graph {
	t.Helper()
	sp := points.Generate(dist, n, 1)
	tp := points.Generate(dist, n, 2)
	dom := geom.BoundingCube(sp, tp)
	src := tree.Build(sp, dom, threshold)
	tgt := tree.Build(tp, dom, threshold)
	lists := tree.DualLists(tgt, src)
	k := kernel.NewLaplace(5)
	k.Prepare(dom.Side, max(src.MaxLevel, tgt.MaxLevel))
	return Build(Config{Method: method}, src, tgt, lists, k)
}

func TestGraphValidates(t *testing.T) {
	for _, m := range []Method{Advanced, Basic, BarnesHut} {
		for _, d := range []points.Distribution{points.Cube, points.Sphere} {
			g := buildGraph(t, m, d, 4000, 40)
			if err := g.Validate(); err != nil {
				t.Errorf("%v/%v: %v", m, d, err)
			}
		}
	}
}

func TestAdvancedHasPlaneWavePipeline(t *testing.T) {
	g := buildGraph(t, Advanced, points.Cube, 8000, 40)
	if g.EdgeCount[OpM2I] == 0 || g.EdgeCount[OpI2I] == 0 || g.EdgeCount[OpI2L] == 0 {
		t.Fatalf("advanced DAG missing plane-wave edges: %v", g.EdgeCount)
	}
	if g.EdgeCount[OpM2L] != 0 {
		t.Errorf("advanced DAG must not contain M->L edges, got %d", g.EdgeCount[OpM2L])
	}
	// I->I must dominate every other expansion-to-expansion operator
	// (Table II: it is the single largest contributor).
	for _, op := range []OpKind{OpS2M, OpM2M, OpM2I, OpI2L, OpL2L, OpL2T} {
		if g.EdgeCount[OpI2I] <= g.EdgeCount[op] {
			t.Errorf("I->I count %d not above %v count %d",
				g.EdgeCount[OpI2I], op, g.EdgeCount[op])
		}
	}
}

func TestBasicUsesM2L(t *testing.T) {
	g := buildGraph(t, Basic, points.Cube, 8000, 40)
	if g.EdgeCount[OpM2L] == 0 {
		t.Fatal("basic DAG has no M->L edges")
	}
	for _, op := range []OpKind{OpM2I, OpI2I, OpI2L} {
		if g.EdgeCount[op] != 0 {
			t.Errorf("basic DAG contains %v edges", op)
		}
	}
}

func TestBarnesHutShape(t *testing.T) {
	g := buildGraph(t, BarnesHut, points.Plummer, 6000, 40)
	if g.EdgeCount[OpM2T] == 0 || g.EdgeCount[OpS2T] == 0 {
		t.Fatal("Barnes-Hut DAG missing M->T or S->T edges")
	}
	for _, op := range []OpKind{OpM2L, OpM2I, OpI2I, OpI2L, OpL2L, OpL2T, OpS2L} {
		if g.EdgeCount[op] != 0 {
			t.Errorf("Barnes-Hut DAG contains %v edges", op)
		}
	}
}

func TestMergeAndShiftReducesTransfers(t *testing.T) {
	// The merge-and-shift DAG must carry far fewer I->I transfers per
	// target box than the 189 direct list-2 translations of the basic
	// method (paper: ~189 -> ~40).
	adv := buildGraph(t, Advanced, points.Cube, 30000, 60)
	bas := buildGraph(t, Basic, points.Cube, 30000, 60)
	t.Logf("I->I %d / M->L %d = %.3f", adv.EdgeCount[OpI2I], bas.EdgeCount[OpM2L],
		float64(adv.EdgeCount[OpI2I])/float64(bas.EdgeCount[OpM2L]))
	if adv.EdgeCount[OpI2I] >= bas.EdgeCount[OpM2L] {
		t.Errorf("merge-and-shift did not reduce translations: I->I %d vs M->L %d",
			adv.EdgeCount[OpI2I], bas.EdgeCount[OpM2L])
	}
	// A meaningful reduction, not a marginal one.
	if float64(adv.EdgeCount[OpI2I]) > 0.6*float64(bas.EdgeCount[OpM2L]) {
		t.Errorf("reduction too small: I->I %d vs M->L %d",
			adv.EdgeCount[OpI2I], bas.EdgeCount[OpM2L])
	}
}

func TestNodeMasksConsistent(t *testing.T) {
	g := buildGraph(t, Advanced, points.Sphere, 6000, 40)
	for i := range g.Nodes {
		n := &g.Nodes[i]
		switch n.Kind {
		case NodeIs:
			if n.OwnMask == 0 && n.MergedMask == 0 {
				t.Errorf("Is node %d with empty masks", i)
			}
			for _, e := range n.Out {
				if e.Op != OpI2I {
					t.Errorf("Is node %d has out edge %v", i, e.Op)
					continue
				}
				if g.Nodes[e.To].Kind != NodeIt {
					continue
				}
				if e.FromMerged {
					// Transfer of merged waves: direction must be in our
					// merged mask.
					if n.MergedMask&(1<<uint(e.Dir)) == 0 {
						t.Errorf("Is node %d: merged transfer dir %d not in mask %x",
							i, e.Dir, n.MergedMask)
					}
				} else if n.OwnMask&(1<<uint(e.Dir)) == 0 {
					t.Errorf("Is node %d: transfer dir %d not in own mask %x",
						i, e.Dir, n.OwnMask)
				}
			}
		case NodeIt:
			if n.OwnMask == 0 && n.MergedMask == 0 {
				t.Errorf("It node %d with empty masks", i)
			}
			i2l, dist := 0, 0
			for _, e := range n.Out {
				switch e.Op {
				case OpI2L:
					i2l++
				case OpI2I:
					dist++
					if !e.FromMerged || e.DirMask == 0 {
						t.Errorf("It node %d: bad distribution edge", i)
					}
				default:
					t.Errorf("It node %d has out edge %v", i, e.Op)
				}
			}
			if n.OwnMask != 0 && i2l != 1 {
				t.Errorf("It node %d: %d I->L edges, want 1", i, i2l)
			}
			if n.OwnMask == 0 && i2l != 0 {
				t.Errorf("It node %d: I->L edge without own waves", i)
			}
			if n.MergedMask != 0 && dist == 0 {
				t.Errorf("It node %d: shared waves but no distribution", i)
			}
		case NodeT:
			if len(n.Out) != 0 {
				t.Errorf("T node %d has out edges", i)
			}
		case NodeS:
			if n.In != 0 {
				t.Errorf("S node %d has inputs", i)
			}
		}
	}
}

func TestCensusShape(t *testing.T) {
	g := buildGraph(t, Advanced, points.Cube, 20000, 60)
	nodes, edges := g.Census()
	byKind := map[NodeKind]NodeCensus{}
	for _, c := range nodes {
		byKind[c.Kind] = c
	}
	// All six classes of Table I must be present for cube data.
	for k := NodeKind(0); k < NumNodeKinds; k++ {
		if byKind[k].Count == 0 {
			t.Errorf("node class %v missing from census", k)
		}
	}
	// S and T counts equal the leaf counts.
	if got := byKind[NodeS].Count; got != int64(len(g.Source.Leaves)) {
		t.Errorf("S count %d != %d source leaves", got, len(g.Source.Leaves))
	}
	// Consistency between edge census and edge counters.
	for _, e := range edges {
		if e.Count != g.EdgeCount[e.Op] {
			t.Errorf("census count mismatch for %v", e.Op)
		}
	}
	// The formatted tables must include every row.
	txt := FormatNodeCensus(nodes)
	if len(txt) == 0 {
		t.Error("empty node census")
	}
	txt = FormatEdgeCensus(edges, map[OpKind]float64{OpI2I: 1.75})
	if len(txt) == 0 {
		t.Error("empty edge census")
	}
}

func TestCriticalPathProperties(t *testing.T) {
	g := buildGraph(t, Advanced, points.Cube, 8000, 40)
	crit, total := g.CriticalPath(nil)
	if crit <= 0 || total <= 0 || crit > total {
		t.Fatalf("critical=%v total=%v", crit, total)
	}
	// The up-down sweep spans at least 2*depth + the bridge.
	minDepth := float64(g.Source.MaxLevel + g.Target.MaxLevel)
	if crit < minDepth {
		t.Errorf("critical path %v shorter than tree depth bound %v", crit, minDepth)
	}
	// Sphere trees are deeper and must have a longer critical path than
	// cube trees of the same size (the paper's motivation for the two data
	// sets).
	gs := buildGraph(t, Advanced, points.Sphere, 8000, 40)
	cs, _ := gs.CriticalPath(nil)
	if cs <= crit {
		t.Errorf("sphere critical path %v not longer than cube %v", cs, crit)
	}
}

func TestTopoOrderIsTopological(t *testing.T) {
	g := buildGraph(t, Advanced, points.Sphere, 3000, 30)
	order := g.TopoOrder()
	if len(order) != len(g.Nodes) {
		t.Fatalf("topo order covers %d of %d", len(order), len(g.Nodes))
	}
	pos := make([]int, len(g.Nodes))
	for i, id := range order {
		pos[id] = i
	}
	for i := range g.Nodes {
		for _, e := range g.Nodes[i].Out {
			if pos[i] >= pos[e.To] {
				t.Fatalf("edge %d->%d violates topo order", i, e.To)
			}
		}
	}
}

func TestMergedEdgesReferenceCompleteSiblingGroups(t *testing.T) {
	g := buildGraph(t, Advanced, points.Cube, 20000, 60)
	for i := range g.Nodes {
		n := &g.Nodes[i]
		if n.Kind != NodeIs || n.MergedMask == 0 {
			continue
		}
		// A merge parent must receive one merge edge per child.
		merges := 0
		for j := range g.Nodes {
			for _, e := range g.Nodes[j].Out {
				if e.To == n.ID && e.Op == OpI2I && e.ToMerged && g.Nodes[j].Kind == NodeIs {
					merges++
				}
			}
		}
		if merges != n.Box.NChildren {
			t.Fatalf("Is node %d: %d merge edges for %d children", i, merges, n.Box.NChildren)
		}
		break // one exhaustive scan is enough; it is O(V*E)
	}
	_ = bits.OnesCount8
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func TestValidateDetectsCorruption(t *testing.T) {
	g := buildGraph(t, Advanced, points.Cube, 2000, 30)
	if err := g.Validate(); err != nil {
		t.Fatalf("fresh graph invalid: %v", err)
	}
	// Corrupt an input count.
	for i := range g.Nodes {
		if g.Nodes[i].In > 0 {
			g.Nodes[i].In++
			if err := g.Validate(); err == nil {
				t.Error("Validate missed a wrong input count")
			}
			g.Nodes[i].In--
			break
		}
	}
	// Introduce a cycle: point some edge back at a node with out-edges.
	var from, to int32 = -1, -1
	for i := range g.Nodes {
		if len(g.Nodes[i].Out) > 0 && g.Nodes[i].In > 0 {
			to = int32(i)
			break
		}
	}
	for i := range g.Nodes {
		for j := range g.Nodes[i].Out {
			if g.Nodes[i].Out[j].To == to {
				from = int32(i)
				// Redirect the receiving node's first edge back to `from`,
				// forming a cycle from -> to -> ... -> from.
				_ = j
				break
			}
		}
		if from >= 0 {
			break
		}
	}
	if from >= 0 && len(g.Nodes[to].Out) > 0 {
		old := g.Nodes[to].Out[0]
		g.Nodes[to].Out[0].To = from
		g.Nodes[from].In++
		g.Nodes[old.To].In--
		if err := g.Validate(); err == nil {
			t.Error("Validate missed a cycle")
		}
	}
}

func TestRootsAreSourceBundles(t *testing.T) {
	g := buildGraph(t, Advanced, points.Cube, 3000, 40)
	for _, id := range g.Roots() {
		n := &g.Nodes[id]
		if n.In != 0 {
			t.Fatalf("root %d has inputs", id)
		}
		if n.Kind != NodeS && n.Kind != NodeT {
			t.Errorf("unexpected root kind %v", n.Kind)
		}
	}
}
