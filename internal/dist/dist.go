// Package dist places the nodes of the implicit (LCO) DAG onto localities
// with the paper's communication-minimizing policy (Section IV), fails a dead
// locality's nodes over to the survivors, and measures the traffic a
// placement implies. The only hard constraint is the paper's: nodes tied to
// leaf data — the S and T bundles, the multipole expansion of a source leaf
// and the local expansion of a target leaf — are fixed to the locality that
// owns the underlying points (the a-priori coarse block distribution of each
// ensemble). Everything else is policy.
package dist

import (
	"repro/internal/dag"
	"repro/internal/tree"
)

// owner returns the block-distribution owner of a box: points are split
// into `localities` equal contiguous ranges in tree (Morton-ish) order, and
// a box belongs to the locality owning its middle point. This matches the
// paper's "sorted at a coarse level ... then distributed equally across
// localities".
func owner(b *tree.Box, total, localities int) int32 {
	if total == 0 {
		return 0
	}
	mid := (b.Lo + b.Hi) / 2
	o := mid * localities / total
	if o >= localities {
		o = localities - 1
	}
	return int32(o)
}

// MinComm is the paper's merge-and-shift-aware policy: leaf-pinned nodes go
// to their data owner; source-side M and Is nodes go to the owner of their
// box; the local expansion of a target box goes to its owner; and the
// target-side intermediate (It) node — the node with the heaviest fan-in —
// is placed at the locality from which it receives the most bytes, breaking
// ties toward its box owner to keep the I->L edge local. This mirrors
// "the node representing the intermediate expansion of a target box is
// placed by trying to minimize communication cost while increasing slack
// time to hide communication latency".
type MinComm struct{}

// Assign writes every node's Locality.
func (MinComm) Assign(g *dag.Graph, localities int) {
	ns := len(g.Source.Pts)
	nt := len(g.Target.Pts)
	// First pass: everything but It at its box owner.
	for i := range g.Nodes {
		n := &g.Nodes[i]
		switch n.Kind {
		case dag.NodeS, dag.NodeM, dag.NodeIs:
			n.Locality = owner(n.Box, ns, localities)
		default:
			n.Locality = owner(n.Box, nt, localities)
		}
	}
	if localities == 1 {
		return
	}
	// Second pass: tally incoming bytes per It node per source locality.
	inBytes := make(map[int32]map[int32]int64)
	for i := range g.Nodes {
		n := &g.Nodes[i]
		for _, e := range n.Out {
			to := &g.Nodes[e.To]
			if to.Kind != dag.NodeIt {
				continue
			}
			m := inBytes[to.ID]
			if m == nil {
				m = make(map[int32]int64)
				inBytes[to.ID] = m
			}
			m[n.Locality] += int64(e.Bytes)
		}
	}
	for i := range g.Nodes {
		n := &g.Nodes[i]
		if n.Kind != dag.NodeIt {
			continue
		}
		home := owner(n.Box, nt, localities)
		best := home
		var bestBytes int64 = -1
		if m := inBytes[n.ID]; m != nil {
			// The I->L edge to the local expansion weighs in for the home
			// locality. Scan localities in rank order — not map order — so
			// equal-byte ties resolve identically on every process: in
			// multi-process runs each rank computes this placement
			// independently and all copies must agree.
			m[home] += int64(g.Kernel.MLSize() * 16)
			for loc := int32(0); loc < int32(localities); loc++ {
				b, ok := m[loc]
				if !ok {
					continue
				}
				if b > bestBytes || (b == bestBytes && loc == home) {
					best, bestBytes = loc, b
				}
			}
		}
		n.Locality = best
	}
}

// Failover reassigns ownership after a locality crash: every entry of
// homes (the current node→locality assignment, one entry per DAG node)
// equal to dead is rewritten to one of the surviving ranks, round-robin by
// node index so the orphaned work spreads evenly across the survivors. The
// rule is a pure function of (homes, dead, survivors), so every participant
// of a recovery — and a re-execution of the same failure scenario — picks
// identical new owners, which is what makes crash recovery deterministic.
// It returns the number of reassigned nodes. survivors must be non-empty
// and must not contain dead.
func Failover(homes []int32, dead int32, survivors []int32) int {
	if len(survivors) == 0 {
		panic("dist: Failover with no surviving localities")
	}
	for _, s := range survivors {
		if s == dead {
			panic("dist: Failover survivor list contains the dead rank")
		}
	}
	moved := 0
	for i := range homes {
		if homes[i] == dead {
			homes[i] = survivors[i%len(survivors)]
			moved++
		}
	}
	return moved
}

// RemoteBytes sums the bytes of edges that cross localities under the
// current assignment — the communication volume the placement will incur.
func RemoteBytes(g *dag.Graph) int64 {
	var total int64
	for i := range g.Nodes {
		n := &g.Nodes[i]
		for _, e := range n.Out {
			if g.Nodes[e.To].Locality != n.Locality {
				total += int64(e.Bytes)
			}
		}
	}
	return total
}

// RemoteEdges counts edges that cross localities.
func RemoteEdges(g *dag.Graph) int64 {
	var total int64
	for i := range g.Nodes {
		n := &g.Nodes[i]
		for _, e := range n.Out {
			if g.Nodes[e.To].Locality != n.Locality {
				total++
			}
		}
	}
	return total
}
