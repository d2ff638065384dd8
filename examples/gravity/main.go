// Gravity: an N-body workload in the style the paper's introduction
// motivates — the gravitational potential of a Plummer star cluster acting
// on itself (identical source and target ensembles, 1/r kernel).
//
// The example compares the Barnes–Hut and advanced-FMM methods DASHMM is
// generic over: same ensembles, same API, different method parameter, and
// reports the accuracy and DAG shape of both, plus the total potential
// energy of the cluster.
//
//	go run ./examples/gravity
package main

import (
	"fmt"
	"log"
	"math/rand"
	"runtime"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/geom"
	"repro/internal/kernel"
	"repro/internal/points"
	"repro/internal/tree"
)

func main() {
	const n = 20000
	stars := points.Generate(points.Plummer, n, 7)
	// Equal masses normalized to a unit-mass cluster.
	masses := make([]float64, n)
	for i := range masses {
		masses[i] = 1.0 / n
	}
	k := kernel.NewLaplace(kernel.OrderForDigits(3))

	workers := runtime.GOMAXPROCS(0)
	rng := rand.New(rand.NewSource(9))
	sample := make([]int, 25)
	for i := range sample {
		sample[i] = rng.Intn(n)
	}
	exact := baseline.DirectSample(k, stars, masses, stars, sample)

	for _, m := range []dag.Method{dag.BarnesHut, dag.Advanced} {
		// The paper's threshold, so both methods show the DAG they are: left
		// to the cost model, Barnes–Hut with order-9 multipoles at this N is
		// priced above the double loop and becomes a level-1 tree of S→T.
		plan, err := core.NewPlan(stars, stars, k, core.Options{Method: m, Theta: 0.5, Threshold: tree.Threshold})
		if err != nil {
			log.Fatal(err)
		}
		pot, rep, err := plan.Evaluate(masses, core.ExecOptions{Workers: workers, Gradient: true})
		if err != nil {
			log.Fatal(err)
		}
		var worst float64
		for _, i := range sample {
			rel := abs(pot[i]-exact[i]) / abs(exact[i])
			if rel > worst {
				worst = rel
			}
		}
		// Total potential energy: U = -1/2 sum_i m_i phi_i (sign flipped
		// since the 1/r kernel is positive). The accelerations a_i =
		// grad phi_i come from the same evaluation; for an isolated system
		// the total momentum flux sum m_i a_i must vanish (Newton's third
		// law), a strong end-to-end consistency check.
		var u float64
		var net geom.Point
		for i, p := range pot {
			u -= 0.5 * masses[i] * p
			net = net.Add(rep.Gradients[i].Scale(masses[i]))
		}
		fmt.Printf("%-12s %8d nodes %9d edges  %9v  U=%.6f  |sum m*a|=%.1e  worst rel.err %.1e\n",
			m, len(plan.Graph.Nodes), plan.Graph.NumEdges(), rep.Elapsed, u, net.Norm(), worst)
	}
	fmt.Println("(an unclipped Plummer model with scale radius a=0.1 has U = -3*pi/(32*a)*G*M^2 ~ -2.95;")
	fmt.Println(" clipping to the unit cube concentrates the cluster and binds it slightly tighter)")
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
