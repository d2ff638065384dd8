package main

import (
	"repro/internal/dag"
	"repro/internal/kernel"
	"repro/internal/points"
)

// digits is the accuracy every workload asks for, and checkTol the error
// against direct summation beyond which a result counts as failed.
const (
	digits       = 3
	checkTol     = 1e-3
	checkTargets = 200
	minSamples   = 10
)

type workloadKind int

const (
	kindLibrary workloadKind = iota // in-process: core.NewPlan + ParallelEvaluation.Run
	kindServe                       // dashmm-serve child, mixed warm/cold traffic
	kindDist                        // dashmm-serve child with a one-rank worker pool
)

// workload is one set of inputs the benchmark runs. The problem fields
// describe the evaluation the program is asked for; the rest is the
// traffic around it.
type workload struct {
	Name string
	Why  string
	Kind workloadKind

	Dist      points.Distribution
	N         int
	Yukawa    bool
	Lambda    float64
	Method    dag.Method
	Threshold int // 0 = the program's default (60)
	Workers   int // scheduler threads of one evaluation

	// Setups is how many times one run repeats set-up (median reported).
	Setups int
}

// workloadCores is how many cores a workload keeps busy; the calibration loop
// runs on as many goroutines. Every workload here is sized for the two
// cores of the reference box: two scheduler threads, two single-threaded
// concurrent requests, or two single-threaded ranks.
const workloadCores = 2

var workloads = []workload{
	{
		Name: "cube16k_laplace_adv",
		Why:  "default path (Advanced, threshold 60) on a uniform cube: far field is >90% of busy time, so plane-wave, expansion-size and leaf-size work shows here and near-field work does not",
		Kind: kindLibrary, Dist: points.Cube, N: 16000, Method: dag.Advanced, Workers: 2, Setups: 3,
	},
	{
		Name: "sphere100k_yukawa_basic",
		Why:  "other kernel, other method, adaptive tree with ~90-point leaves: near-field tiles and dense M2L dominate, no I-edges, so P2P/dense-operator work shows here and plane-wave work must leave it flat",
		Kind: kindLibrary, Dist: points.Sphere, N: 100000, Yukawa: true, Lambda: 4, Method: dag.Basic,
		Threshold: 240, Workers: 2, Setups: 1,
	},
	{
		Name: "serve_mixed_2k",
		Why:  "real daemon, 2 closed-loop clients, 4 Zipf warm keys plus 1 never-seen key in 12: plan cache and store written beside read, below the direct-sum crossover, so routing and shared tables show here",
		Kind: kindServe, Dist: points.Cube, N: 2000, Method: dag.Advanced, Workers: 1, Setups: 3,
	},
	{
		Name: "dist2_cube16k",
		Why:  "same problem as cube16k_laplace_adv on the same two cores but as two OS processes over unix sockets: the difference is wire plus fabric, so kernel gains move both and wire gains only this one",
		Kind: kindDist, Dist: points.Cube, N: 16000, Method: dag.Advanced, Workers: 2, Setups: 3,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// smoke shrinks a workload to a size the unit test can afford: same code
// paths, same processes, N=2000 and one set-up.
func (w workload) smoke() workload {
	w.N = 2000
	w.Setups = 1
	return w
}

func (w *workload) newKernel() kernel.Kernel {
	p := kernel.OrderForDigits(digits)
	if w.Yukawa {
		return kernel.NewYukawa(p, w.Lambda)
	}
	return kernel.NewLaplace(p)
}

func (w *workload) kernelName() string {
	if w.Yukawa {
		return "yukawa"
	}
	return "laplace"
}
