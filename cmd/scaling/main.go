// Command scaling regenerates Figure 3 of the paper — the strong scaling of
// DAG evaluation, time-to-completion t_n and speedup t_32/t_n for core
// counts n = 32..4096 — together with the Section V-A scaling-efficiency
// summary and the Section VI priority-scheduling estimate.
//
// The paper ran on Big Red II (128 nodes x 32 cores, Gemini). This machine
// has one core, so the scaling curves are produced by the discrete-event
// simulator replaying the true explicit DAG under measured (or paper)
// per-operator costs; see DESIGN.md substitution 1. Cores are grouped 32
// per locality as on Big Red II.
//
//	scaling -n 1000000 -max-cores 4096 -model paper
//	scaling -n 200000 -model calibrate   # costs measured on this machine
//
// With -model calibrate every workload also prints, per operator class, the
// busy seconds the calibration run traced beside the ones the compiled-in
// cost table (internal/kernel/cost.go) prices for the same DAG: the ratio is
// the factor by which that table's constant is off on this machine, which is
// how its constants were taken and how they are regenerated.
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"runtime"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/dist"
	"repro/internal/kernel"
	"repro/internal/points"
	"repro/internal/sim"
	"repro/internal/trace"
)

const coresPerLocality = 32 // Big Red II: two 16-core Opterons per node

type workload struct {
	name   string
	dist   points.Distribution
	kernel string
	n      int
}

func main() {
	var (
		nCube    = flag.Int("n", 400000, "cube points (paper: 60M); sphere uses 0.7x as in the paper")
		maxCores = flag.Int("max-cores", 4096, "largest core count (paper: 4096)")
		model    = flag.String("model", "paper", "cost model: paper | calibrate")
		digits   = flag.Int("digits", 3, "accuracy digits")
		thr      = flag.Int("threshold", 60, "refinement threshold (the paper's 60; 0: chosen by the cost model)")
		prio     = flag.Bool("priority", true, "also run the Section VI priority-scheduling estimate")
	)
	flag.Parse()

	nSphere := *nCube * 7 / 10 // 42M vs 60M in the paper
	workloads := []workload{
		{"cube Laplace", points.Cube, "laplace", *nCube},
		{"cube Yukawa", points.Cube, "yukawa", *nCube},
		{"sphere Laplace", points.Sphere, "laplace", nSphere},
		{"sphere Yukawa", points.Sphere, "yukawa", nSphere},
	}

	fmt.Printf("# Figure 3: strong scaling of DAG evaluation (simulated machine, %d cores/locality)\n", coresPerLocality)
	fmt.Printf("# cost model: %s\n\n", *model)

	type series struct {
		name string
		tn   map[int]float64
	}
	var all []series
	coreCounts := []int{}
	for c := coresPerLocality; c <= *maxCores; c *= 2 {
		coreCounts = append(coreCounts, c)
	}

	for _, wl := range workloads {
		g, cm := buildWorkload(wl, *digits, *thr, *model)
		s := series{name: wl.name, tn: map[int]float64{}}
		for _, cores := range coreCounts {
			L := cores / coresPerLocality
			dist.MinComm{}.Assign(g, L)
			r := sim.Run(g, sim.Config{Localities: L, Cores: coresPerLocality, Model: cm, Sched: sim.FIFO})
			s.tn[cores] = r.Makespan / 1e9
		}
		all = append(all, s)

		if *prio {
			// Section VI: priority hints recover the starved region. The
			// paper estimates "10% or more"; the gain depends on how large
			// the starved tail is relative to the run, so report several
			// scales.
			for _, cores := range coreCounts {
				if cores < *maxCores/8 {
					continue
				}
				L := cores / coresPerLocality
				dist.MinComm{}.Assign(g, L)
				f := sim.Run(g, sim.Config{Localities: L, Cores: coresPerLocality, Model: cm, Sched: sim.FIFO})
				p := sim.Run(g, sim.Config{Localities: L, Cores: coresPerLocality, Model: cm, Sched: sim.Priority})
				base := s.tn[coreCounts[0]]
				effF := base / f.Makespan * 1e9 / float64(L)
				effP := base / p.Makespan * 1e9 / float64(L)
				fmt.Printf("# %-15s priority ablation at %4d cores: eff %.0f%% -> %.0f%% (%+.0f pts)\n",
					wl.name+":", cores, 100*effF, 100*effP, 100*(effP-effF))
			}
		}
	}

	// t_n table.
	fmt.Printf("\n%-8s", "n")
	for _, s := range all {
		fmt.Printf(" %16s", s.name)
	}
	fmt.Println("  [t_n seconds]")
	for _, c := range coreCounts {
		fmt.Printf("%-8d", c)
		for _, s := range all {
			fmt.Printf(" %16.3f", s.tn[c])
		}
		fmt.Println()
	}

	// Speedup table (t_32 / t_n).
	fmt.Printf("\n%-8s", "n")
	for _, s := range all {
		fmt.Printf(" %16s", s.name)
	}
	fmt.Println("  [speedup t_32/t_n]")
	for _, c := range coreCounts {
		fmt.Printf("%-8d", c)
		for _, s := range all {
			fmt.Printf(" %16.2f", s.tn[coreCounts[0]]/s.tn[c])
		}
		fmt.Println()
	}

	// Section V-A: final scaling efficiency at max cores (paper: 60% cube
	// Laplace, 74% cube Yukawa, 62% sphere Laplace, 69% sphere Yukawa).
	last := coreCounts[len(coreCounts)-1]
	ideal := float64(last / coreCounts[0])
	fmt.Printf("\n# scaling efficiency at %d cores (paper: 60%% / 74%% / 62%% / 69%%):\n", last)
	for _, s := range all {
		eff := s.tn[coreCounts[0]] / s.tn[last] / ideal
		fmt.Printf("#   %-15s %5.0f%%\n", s.name+":", 100*eff)
	}
	_ = math.Inf
}

// buildWorkload constructs the DAG of one workload and its cost model.
func buildWorkload(wl workload, digits, thr int, model string) (*dag.Graph, sim.CostModel) {
	sp := points.Generate(wl.dist, wl.n, 1)
	tp := points.Generate(wl.dist, wl.n, 2)
	k, err := kernel.New(wl.kernel, kernel.OrderForDigits(digits), 4.0)
	if err != nil {
		log.Fatal(err)
	}
	plan, err := core.NewPlan(sp, tp, k, core.Options{Threshold: thr})
	if err != nil {
		log.Fatal(err)
	}
	var cm sim.CostModel
	switch model {
	case "paper":
		cm = sim.PaperCostModel()
		if wl.kernel == "yukawa" {
			// The Yukawa operators are heavier at equal DAG shape (paper
			// Section V-A); the factor matches our measured kernel ratio.
			cm = sim.YukawaScale(cm, 2.5)
		}
	case "calibrate":
		// Measure this machine's per-operator costs from a real traced run
		// on a smaller instance of the same workload, then extrapolate.
		cal := calibrationRun(wl, digits, thr)
		cm = cal
		cm.LatencyNanos = 10000
		cm.BytesPerNano = 6
	default:
		log.Fatalf("unknown cost model %q", model)
	}
	return plan.Graph, cm
}

func calibrationRun(wl workload, digits, thr int) sim.CostModel {
	n := wl.n
	if n > 100000 {
		n = 100000
	}
	sp := points.Generate(wl.dist, n, 1)
	tp := points.Generate(wl.dist, n, 2)
	q := points.Charges(n, 3)
	k, err := kernel.New(wl.kernel, kernel.OrderForDigits(digits), 4.0)
	if err != nil {
		log.Fatal(err)
	}
	plan, err := core.NewPlan(sp, tp, k, core.Options{Threshold: thr})
	if err != nil {
		log.Fatal(err)
	}
	w := runtime.GOMAXPROCS(0)
	tr := trace.New(w)
	pe, err := plan.NewParallelEvaluation(core.ExecOptions{Workers: w, Tracer: tr})
	if err != nil {
		log.Fatal(err)
	}
	// The first evaluation builds the lazy operator tables inside the
	// operators; calibrate on the warm second.
	for i := 0; i < 2; i++ {
		tr.Reset()
		if _, _, err := pe.Run(q); err != nil {
			log.Fatal(err)
		}
	}
	cal := sim.Calibrate(plan.Graph, tr.Snapshot())
	traced, priced := cal.Predict(plan.Graph), plan.Predicted()
	fmt.Printf("# calibration, %s N=%d threshold %d: busy seconds traced / priced by internal/kernel/cost.go\n",
		wl.name, n, plan.Threshold())
	for op := dag.OpKind(0); op < dag.NumOpKinds; op++ {
		if traced[op] > 0 {
			fmt.Printf("#   %-4v %9.4f / %9.4f = %5.2f\n", op, traced[op]/1e9, priced[op]/1e9, traced[op]/priced[op])
		}
	}
	return cal
}
