// Capacitance: the paper's motivating use case for amortizing DAG
// construction — an iterative procedure that evaluates the same DAG many
// times with different inputs (Section IV).
//
// We solve a first-kind boundary integral equation: find the charge
// distribution q on a conducting sphere held at unit potential,
//
//	sum_j q_j / |x_i - x_j| = 1   for every panel point x_i,
//
// by the positivity-preserving multiplicative fixed point q_i <- q_i / phi_i
// (charge flows away from over-potential regions), using the FMM evaluation
// as the matrix-vector product. The plan (tree + lists + DAG + operator
// tables) is built once; each iteration reruns it on one ParallelEvaluation
// context, whose payload buffers, LCO network and runtime are reused. The converged total charge approximates the analytic capacitance
// of a sphere (C = R in Gaussian units; R = 0.5 here).
//
//	go run ./examples/capacitance
package main

import (
	"fmt"
	"log"
	"math"
	"runtime"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/points"
)

func main() {
	const (
		n     = 15000
		iters = 25
	)
	pts := points.Generate(points.Sphere, n, 21) // radius 0.5 around (.5,.5,.5)
	k := kernel.NewLaplace(kernel.OrderForDigits(3))

	plan, err := core.NewPlan(pts, pts, k, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	ev, err := plan.NewParallelEvaluation(core.ExecOptions{Workers: runtime.GOMAXPROCS(0)})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("plan built once: %d nodes, %d edges; iterating %d times\n",
		len(plan.Graph.Nodes), plan.Graph.NumEdges(), iters)

	// Initial guess: uniform positive charge.
	q := make([]float64, n)
	for i := range q {
		q[i] = 1.0 / n
	}
	for it := 0; it < iters; it++ {
		pot, _, err := ev.Run(q)
		if err != nil {
			log.Fatal(err)
		}
		var res, tot float64
		for i := range q {
			r := 1 - pot[i]
			q[i] /= pot[i] // multiplicative update toward phi_i = 1
			res += r * r
			tot += q[i]
		}
		if it%5 == 0 || it == iters-1 {
			fmt.Printf("iter %2d: residual %.3e  total charge %.6f\n",
				it, math.Sqrt(res/float64(n)), tot)
		}
	}
	var tot float64
	for _, v := range q {
		tot += v
	}
	fmt.Printf("capacitance: Q/V = %.4f (analytic sphere value: R = 0.5)\n", tot)
}
