package core

import (
	"fmt"
	"hash/fnv"
	"slices"
	"sync"
	"testing"

	"repro/internal/dag"
)

// graphHash digests everything of a graph's nodes and edges an executor or
// a placement could write.
func graphHash(g *dag.Graph) uint64 {
	h := fnv.New64a()
	for i := range g.Nodes {
		n := &g.Nodes[i]
		fmt.Fprint(h, n.ID, n.Kind, n.Box.Index, n.Box.Center, n.In, n.Bytes, n.Locality, n.OwnMask, n.MergedMask, n.Out)
	}
	return h.Sum64()
}

// A built plan is read-only: two ParallelEvaluations and two two-rank
// placements (the one a DistRun makes) place the one graph at the same time
// and get identical homes, the evaluations run concurrently and match the
// sequential walker, and nothing of Graph.Nodes or their Out lists changes
// between NewPlan's return and the end of the runs. Run under -race (make
// race) this also holds the placement free of shared writes.
func TestConcurrentPlacementLeavesGraphUntouched(t *testing.T) {
	plan, q, want := testPlan(t, dag.Advanced, 1500)
	before := graphHash(plan.Graph)

	pes := make([]*ParallelEvaluation, 2)
	ranked := make([][]int32, 2)
	var wg sync.WaitGroup
	for i := range 2 {
		wg.Add(2)
		go func() {
			defer wg.Done()
			pe, err := plan.NewParallelEvaluation(ExecOptions{Workers: 2})
			if err != nil {
				t.Error(err)
				return
			}
			pes[i] = pe
		}()
		go func() {
			defer wg.Done()
			ranked[i] = plan.place([]int32{0, 1})
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if !slices.Equal(pes[0].ex.homes, pes[1].ex.homes) {
		t.Error("two in-process contexts placed the plan differently")
	}
	if !slices.Equal(ranked[0], ranked[1]) || !slices.Contains(ranked[0], 1) {
		t.Error("two concurrent two-rank placements differ, or use one rank only")
	}

	pots := make([][]float64, 2)
	for i, pe := range pes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pot, _, err := pe.Run(q)
			if err != nil {
				t.Error(err)
			}
			pots[i] = pot
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for _, pot := range pots {
		assertSame(t, pot, want, 1e-12)
	}
	if after := graphHash(plan.Graph); after != before {
		t.Errorf("graph hash %x after placements and runs, %x after NewPlan", after, before)
	}
}
