// Package dagtest holds the assertions shared by the test suites that build
// DAGs through core.NewPlan.
package dagtest

import (
	"testing"

	"repro/internal/dag"
)

// RequireFarField fails the test unless the graph moves expansions between
// the trees: M→I and I→L edges (advanced method) or M→L edges (basic).
// Fixtures that exist to exercise the far field call it, so a change of the
// default leaf size — small ensembles tune to an all-near-field level-1
// tree — cannot hollow their gates out unnoticed.
func RequireFarField(t testing.TB, g *dag.Graph) {
	t.Helper()
	c := g.EdgeCount
	if (c[dag.OpM2I] > 0 && c[dag.OpI2L] > 0) || c[dag.OpM2L] > 0 {
		return
	}
	t.Fatalf("fixture has no far field (M→I %d, I→L %d, M→L %d edges over %d source and %d target leaves): "+
		"pin a threshold below the leaf population, or the gates on this plan check S→T only",
		c[dag.OpM2I], c[dag.OpI2L], c[dag.OpM2L], len(g.Source.Leaves), len(g.Target.Leaves))
}
