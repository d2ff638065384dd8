// Command dagstat regenerates Tables I and II of the paper: the census of
// DAG nodes (count, payload size, in-/out-degree extrema per class) and of
// DAG edges (count, transferred bytes, and — with -time — the measured
// average execution time per operator class from a traced run).
//
// Paper configuration: 30M sources and targets in a cube, threshold 60,
// 3 digits. Scale N to this machine with -n.
//
//	dagstat -n 2000000 -dist cube -kernel laplace -time
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/kernel"
	"repro/internal/points"
	"repro/internal/trace"
)

func main() {
	var (
		n        = flag.Int("n", 200000, "number of sources and of targets (paper: 30M)")
		distName = flag.String("dist", "cube", "point distribution: cube | sphere | plummer")
		kernName = flag.String("kernel", "laplace", "kernel: laplace | yukawa")
		lambda   = flag.Float64("lambda", 4.0, "Yukawa screening parameter")
		digits   = flag.Int("digits", 3, "accuracy digits (paper: 3)")
		thr      = flag.Int("threshold", 60, "refinement threshold (paper: 60)")
		method   = flag.String("method", "advanced", "method: advanced | basic | barneshut")
		withTime = flag.Bool("time", false, "execute the DAG once and report t_avg per operator (Table II column 4)")
		workers  = flag.Int("workers", runtime.GOMAXPROCS(0), "workers for the timed run")
	)
	flag.Parse()

	dist, err := points.ParseDistribution(*distName)
	if err != nil {
		log.Fatal(err)
	}
	k, err := kernel.New(*kernName, kernel.OrderForDigits(*digits), *lambda)
	if err != nil {
		log.Fatal(err)
	}
	m, err := dag.ParseMethod(*method)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("# dagstat: N=%d dist=%s kernel=%s digits=%d threshold=%d method=%s\n",
		*n, dist, k.Name(), *digits, *thr, m)
	sp := points.Generate(dist, *n, 1)
	tp := points.Generate(dist, *n, 2)
	plan, err := core.NewPlan(sp, tp, k, core.Options{Method: m, Threshold: *thr})
	if err != nil {
		log.Fatal(err)
	}
	nodes, edges := plan.Graph.Census()

	fmt.Printf("\nTable I: count, size and min/max in-/out-degree of DAG nodes\n")
	fmt.Print(dag.FormatNodeCensus(nodes))
	fmt.Printf("(%d nodes, %d edges total)\n", len(plan.Graph.Nodes), plan.Graph.NumEdges())

	var avg map[dag.OpKind]float64
	if *withTime {
		q := points.Charges(*n, 3)
		tr := trace.New(*workers)
		if _, _, err := plan.Evaluate(q, core.ExecOptions{Workers: *workers, Tracer: tr}); err != nil {
			log.Fatal(err)
		}
		avg = map[dag.OpKind]float64{}
		for c, v := range trace.AvgMicrosByClass(tr.Snapshot()) {
			avg[dag.OpKind(c)] = v
		}
	}
	fmt.Printf("\nTable II: count, message size and average execution time of DAG edges\n")
	fmt.Print(dag.FormatEdgeCensus(edges, avg))
	if !*withTime {
		fmt.Println("(rerun with -time for the t_avg column)")
	}
}

func init() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: dagstat [flags]\nRegenerates Tables I and II of the paper.\n\n")
		flag.PrintDefaults()
	}
}
