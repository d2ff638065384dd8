// Benchmarks indexed to the paper's evaluation: one benchmark per table and
// figure (see DESIGN.md's per-experiment index), plus one per operator class
// for the t_avg column of Table II and ablation benches for the design
// choices the paper discusses.
//
//	go test -bench=. -benchmem
//
// Custom metrics reported via b.ReportMetric:
//
//	nodes, edges           DAG census sizes (Tables I, II)
//	eff-<cores>            simulated strong-scaling efficiency (Fig. 3, E6)
//	dip-width-<cores>      starvation-dip width in % of the run (Fig. 4)
//	plateau                utilization plateau (Figs. 4, 5)
//	speedup-priority       priority-scheduling gain (Section VI, E7)
//	slowdown-levelwise     level-by-level BSP penalty (E8)
package repro

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/dag/dagtest"
	"repro/internal/dist"
	"repro/internal/geom"
	"repro/internal/kernel"
	"repro/internal/points"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/tree"
)

// benchN is the ensemble size of the DAG-shape benchmarks. The paper uses
// 30M–60M points; this size keeps a full bench run in minutes on one core
// while preserving a 4–5 level tree. Scale with cmd/dagstat and cmd/scaling
// for larger runs.
const benchN = 120000

var planCache sync.Map // key string -> *core.Plan

func cachedPlan(b *testing.B, key string, build func() *core.Plan) *core.Plan {
	if v, ok := planCache.Load(key); ok {
		return v.(*core.Plan)
	}
	b.StopTimer()
	p := build()
	dagtest.RequireFarField(b, p.Graph)
	planCache.Store(key, p)
	b.StartTimer()
	return p
}

// paperOpts pins a benchmark's plan to the paper's refinement threshold:
// these benchmarks reproduce the paper's census and time its far-field
// operators at the depth the paper ran them.
func paperOpts(method dag.Method) core.Options {
	return core.Options{Method: method, Threshold: tree.Threshold}
}

func cubePlan(b *testing.B, method dag.Method) *core.Plan {
	return cachedPlan(b, "cube/"+method.String(), func() *core.Plan {
		sp := points.Generate(points.Cube, benchN, 1)
		tp := points.Generate(points.Cube, benchN, 2)
		p, err := core.NewPlan(sp, tp, kernel.NewLaplace(kernel.OrderForDigits(3)), paperOpts(method))
		if err != nil {
			b.Fatal(err)
		}
		return p
	})
}

func spherePlan(b *testing.B) *core.Plan {
	return cachedPlan(b, "sphere", func() *core.Plan {
		n := benchN * 7 / 10
		sp := points.Generate(points.Sphere, n, 1)
		tp := points.Generate(points.Sphere, n, 2)
		p, err := core.NewPlan(sp, tp, kernel.NewLaplace(kernel.OrderForDigits(3)), paperOpts(dag.Advanced))
		if err != nil {
			b.Fatal(err)
		}
		return p
	})
}

// BenchmarkTable1NodeCensus builds the explicit DAG of the paper's cube
// workload and reports the Table I node census.
func BenchmarkTable1NodeCensus(b *testing.B) {
	var nodes []dag.NodeCensus
	for i := 0; i < b.N; i++ {
		sp := points.Generate(points.Cube, benchN, 1)
		tp := points.Generate(points.Cube, benchN, 2)
		p, err := core.NewPlan(sp, tp, kernel.NewLaplace(kernel.OrderForDigits(3)), paperOpts(dag.Advanced))
		if err != nil {
			b.Fatal(err)
		}
		dagtest.RequireFarField(b, p.Graph)
		nodes, _ = p.Graph.Census()
	}
	for _, c := range nodes {
		b.ReportMetric(float64(c.Count), "nodes-"+c.Kind.String())
	}
}

// BenchmarkTable2EdgeCensus executes the DAG once per iteration with
// tracing and reports the measured average per-operator time — the t_avg
// column of Table II.
func BenchmarkTable2EdgeCensus(b *testing.B) {
	p := cubePlan(b, dag.Advanced)
	q := points.Charges(benchN, 3)
	tr := trace.New(1)
	for i := 0; i < b.N; i++ {
		tr.Reset()
		if _, _, err := p.Evaluate(q, core.ExecOptions{Workers: 1, Tracer: tr}); err != nil {
			b.Fatal(err)
		}
	}
	_, edges := p.Graph.Census()
	avg := trace.AvgMicrosByClass(tr.Snapshot())
	for _, e := range edges {
		b.ReportMetric(float64(e.Count), "edges-"+e.Op.String())
		b.ReportMetric(avg[uint8(e.Op)], "us-"+e.Op.String())
	}
}

// Per-operator microbenchmarks: the t_avg column of Table II measured in
// isolation, for both kernels.

func opKernels(b *testing.B) map[string]kernel.Kernel {
	p := kernel.OrderForDigits(3)
	lap := kernel.NewLaplace(p)
	yuk := kernel.NewYukawa(p, 4.0)
	lap.Prepare(1, 4)
	yuk.Prepare(1, 4)
	return map[string]kernel.Kernel{"laplace": lap, "yukawa": yuk}
}

func opData(k kernel.Kernel) (spts []geom.Point, q []float64, tpts []geom.Point, m, l, x, xr []complex128) {
	rng := rand.New(rand.NewSource(1))
	c := geom.Point{X: 0.5, Y: 0.5, Z: 0.5}
	spts = make([]geom.Point, 60) // the paper's threshold: 60 points/leaf
	tpts = make([]geom.Point, 60)
	for i := range spts {
		spts[i] = geom.Point{X: c.X + 0.1*(rng.Float64()-0.5), Y: c.Y + 0.1*(rng.Float64()-0.5), Z: c.Z + 0.1*(rng.Float64()-0.5)}
		tpts[i] = geom.Point{X: 0.1 * rng.Float64(), Y: 0.1 * rng.Float64(), Z: 0.1 * rng.Float64()}
	}
	q = points.Charges(60, 2)
	m = make([]complex128, k.MLSize())
	l = make([]complex128, k.MLSize())
	x = make([]complex128, k.ISize(3))
	xr = make([]complex128, k.ISize(3))
	k.S2M(c, spts, q, m)
	return
}

func BenchmarkOpS2M(b *testing.B) {
	for name, k := range opKernels(b) {
		b.Run(name, func(b *testing.B) {
			spts, q, _, m, _, _, _ := opData(k)
			c := geom.Point{X: 0.5, Y: 0.5, Z: 0.5}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k.S2M(c, spts, q, m)
			}
		})
	}
}

func BenchmarkOpM2M(b *testing.B) {
	for name, k := range opKernels(b) {
		b.Run(name, func(b *testing.B) {
			_, _, _, m, l, _, _ := opData(k)
			from := geom.Point{X: 0.5, Y: 0.5, Z: 0.5}
			to := geom.Point{X: 0.5625, Y: 0.4375, Z: 0.5625}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k.M2M(from, to, 0.125, m, l)
			}
		})
	}
}

func BenchmarkOpM2L(b *testing.B) {
	for name, k := range opKernels(b) {
		b.Run(name, func(b *testing.B) {
			_, _, _, m, l, _, _ := opData(k)
			from := geom.Point{X: 0.5, Y: 0.5, Z: 0.5}
			to := geom.Point{X: 0.75, Y: 0.5, Z: 0.625}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k.M2L(from, to, 0.125, m, l)
			}
		})
	}
}

func BenchmarkOpL2L(b *testing.B) {
	for name, k := range opKernels(b) {
		b.Run(name, func(b *testing.B) {
			_, _, _, m, l, _, _ := opData(k)
			from := geom.Point{X: 0.5, Y: 0.5, Z: 0.5}
			to := geom.Point{X: 0.53125, Y: 0.46875, Z: 0.53125}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k.L2L(from, to, 0.0625, m, l)
			}
		})
	}
}

func BenchmarkOpM2I(b *testing.B) {
	for name, k := range opKernels(b) {
		b.Run(name, func(b *testing.B) {
			_, _, _, m, _, x, _ := opData(k)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k.M2I(geom.Up, 3, m, x)
			}
		})
	}
}

func BenchmarkOpI2I(b *testing.B) {
	for name, k := range opKernels(b) {
		b.Run(name, func(b *testing.B) {
			_, _, _, _, _, x, xr := opData(k)
			shift := geom.Point{Z: 0.25}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k.I2I(geom.Up, 3, shift, x, xr)
			}
		})
	}
}

func BenchmarkOpI2L(b *testing.B) {
	for name, k := range opKernels(b) {
		b.Run(name, func(b *testing.B) {
			_, _, _, _, l, x, _ := opData(k)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k.I2L(geom.Up, 3, x, l)
			}
		})
	}
}

func BenchmarkOpL2T(b *testing.B) {
	for name, k := range opKernels(b) {
		b.Run(name, func(b *testing.B) {
			_, _, tpts, _, l, _, _ := opData(k)
			c := geom.Point{X: 0.05, Y: 0.05, Z: 0.05}
			pot := make([]float64, len(tpts))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k.L2T(c, l, tpts, pot)
			}
		})
	}
}

func BenchmarkOpS2T(b *testing.B) {
	for name, k := range opKernels(b) {
		b.Run(name, func(b *testing.B) {
			spts, q, tpts, _, _, _, _ := opData(k)
			pot := make([]float64, len(tpts))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k.S2T(spts, q, tpts, pot)
			}
		})
	}
}

// m2lLatticeOffsets enumerates the full interaction lattice of one level:
// every offset with Chebyshev norm 2 or 3, the 316 distinct cached dense
// operators list-2 edges can apply.
func m2lLatticeOffsets() []kernel.M2LOffset {
	var offs []kernel.M2LOffset
	for dx := -3; dx <= 3; dx++ {
		for dy := -3; dy <= 3; dy++ {
			for dz := -3; dz <= 3; dz++ {
				m := dx
				if m < 0 {
					m = -m
				}
				if v := dy; v > m || -v > m {
					m = v
					if m < 0 {
						m = -m
					}
				}
				if v := dz; v > m || -v > m {
					m = v
					if m < 0 {
						m = -m
					}
				}
				if m >= 2 {
					offs = append(offs, kernel.M2LOffset{DX: int8(dx), DY: int8(dy), DZ: int8(dz)})
				}
			}
		}
	}
	return offs
}

// BenchmarkM2LBatchedVsSingle is the batched-execution acceptance
// microbenchmark, modeling one level's list-2 edge stream: the full
// 316-operator interaction lattice (~50 MB of cached dense operators, far
// beyond cache) with 4 edges per operator. "single" applies the edges in
// the executor's per-edge order — operator varying fastest, so every apply
// re-streams its 160 KB operator from memory — while "batched" is the
// batch descriptor's order, grouped by operator, so each operator streams
// once per multi-RHS block. The ratio is the far-field memory-bandwidth
// win batching buys.
func BenchmarkM2LBatchedVsSingle(b *testing.B) {
	const nPer = 4 // edges per operator
	const side = 0.25
	lattice := m2lLatticeOffsets()
	for name, k := range opKernels(b) {
		bk := k.(kernel.BatchKernel)
		sq := k.MLSize()
		rng := rand.New(rand.NewSource(9))
		ins := make([][]complex128, nPer)
		outs := make([][]complex128, nPer)
		for r := range ins {
			ins[r] = make([]complex128, sq)
			for j := range ins[r] {
				ins[r][j] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
			outs[r] = make([]complex128, sq)
		}
		from := geom.Point{X: 0.5, Y: 0.5, Z: 0.5}
		for _, off := range lattice { // build every cached operator up front
			k.M2L(from, from.Add(off.Scale(side)), side, ins[0], outs[0])
		}
		// The batched view of the same edge set: nPer-long runs per offset.
		gOffs := make([]kernel.M2LOffset, 0, len(lattice)*nPer)
		gIns := make([][]complex128, 0, len(lattice)*nPer)
		gOuts := make([][]complex128, 0, len(lattice)*nPer)
		for _, off := range lattice {
			for r := 0; r < nPer; r++ {
				gOffs = append(gOffs, off)
				gIns = append(gIns, ins[r])
				gOuts = append(gOuts, outs[r])
			}
		}
		b.Run("single/"+name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for r := 0; r < nPer; r++ {
					for _, off := range lattice {
						k.M2L(from, from.Add(off.Scale(side)), side, ins[r], outs[r])
					}
				}
			}
		})
		b.Run("batched/"+name, func(b *testing.B) {
			bk.M2LBatch(gOffs, side, 2, gIns, gOuts) // warm
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bk.M2LBatch(gOffs, side, 2, gIns, gOuts)
			}
		})
	}
}

// BenchmarkFig3StrongScaling simulates the strong-scaling sweep of Fig. 3
// (32..1024 cores here; use cmd/scaling for the full 4096) and reports the
// efficiency at each scale.
func BenchmarkFig3StrongScaling(b *testing.B) {
	p := cubePlan(b, dag.Advanced)
	cm := sim.PaperCostModel()
	var eff = map[int]float64{}
	for i := 0; i < b.N; i++ {
		var t32 float64
		for cores := 32; cores <= 1024; cores *= 2 {
			L := cores / 32
			dist.MinComm{}.Assign(p.Graph, L)
			r := sim.Run(p.Graph, sim.Config{Localities: L, Cores: 32, Model: cm, Sched: sim.FIFO})
			if cores == 32 {
				t32 = r.Makespan
			}
			eff[cores] = t32 / r.Makespan / float64(L)
		}
	}
	for cores, e := range eff {
		b.ReportMetric(e, "eff-"+itoa(cores))
	}
}

// BenchmarkFig4Utilization simulates the Fig. 4 runs (64/128/512 cores) and
// reports the starvation-dip width and plateau of each.
func BenchmarkFig4Utilization(b *testing.B) {
	p := cubePlan(b, dag.Advanced)
	cm := sim.PaperCostModel()
	type res struct {
		width    int
		plateau  float64
		makespan float64
	}
	out := map[int]res{}
	for i := 0; i < b.N; i++ {
		for _, cores := range []int{64, 128, 512} {
			L := cores / 32
			dist.MinComm{}.Assign(p.Graph, L)
			r := sim.Run(p.Graph, sim.Config{Localities: L, Cores: 32, Model: cm,
				Sched: sim.FIFO, CollectEvents: true})
			u := trace.Analyze(r.Events, cores, 100, 0, int64(r.Makespan))
			first, last, plateau, found := u.Starvation(0.7)
			w := 0
			if found {
				w = last - first + 1
			}
			out[cores] = res{w, plateau, r.Makespan}
		}
	}
	for cores, r := range out {
		b.ReportMetric(float64(r.width), "dip-width-"+itoa(cores))
		b.ReportMetric(r.plateau, "plateau-"+itoa(cores))
	}
}

// BenchmarkFig5ClassUtilization simulates the 128-core run of Fig. 5 and
// reports how late the upward-sweep work is scheduled under oblivious FIFO
// (the paper finds S->M / M->M stretching to ~83% of the run).
func BenchmarkFig5ClassUtilization(b *testing.B) {
	p := cubePlan(b, dag.Advanced)
	cm := sim.PaperCostModel()
	lastActive := map[dag.OpKind]int{}
	for i := 0; i < b.N; i++ {
		dist.MinComm{}.Assign(p.Graph, 4)
		r := sim.Run(p.Graph, sim.Config{Localities: 4, Cores: 32, Model: cm,
			Sched: sim.FIFO, CollectEvents: true})
		u := trace.Analyze(r.Events, 128, 100, 0, int64(r.Makespan))
		for _, op := range []dag.OpKind{dag.OpS2M, dag.OpM2M, dag.OpI2I, dag.OpL2T} {
			if s := u.ByClass[uint8(op)]; s != nil {
				for k, v := range s {
					if v > 1e-6 {
						lastActive[op] = k
					}
				}
			}
		}
	}
	for op, k := range lastActive {
		b.ReportMetric(float64(k), "last-"+op.String())
	}
}

// BenchmarkPrioritySchedulingAblation quantifies the Section VI estimate:
// priority hints for the upward sweep recover the starved region.
func BenchmarkPrioritySchedulingAblation(b *testing.B) {
	p := spherePlan(b)
	cm := sim.PaperCostModel()
	var gain float64
	for i := 0; i < b.N; i++ {
		dist.MinComm{}.Assign(p.Graph, 16)
		f := sim.Run(p.Graph, sim.Config{Localities: 16, Cores: 32, Model: cm, Sched: sim.FIFO})
		pr := sim.Run(p.Graph, sim.Config{Localities: 16, Cores: 32, Model: cm, Sched: sim.Priority})
		gain = f.Makespan / pr.Makespan
	}
	b.ReportMetric(gain, "speedup-priority")
}

// BenchmarkLevelwiseVsAMT quantifies the introduction's motivation: strict
// level-by-level (SPMD) execution vs asynchronous dataflow.
func BenchmarkLevelwiseVsAMT(b *testing.B) {
	p := spherePlan(b)
	cm := sim.PaperCostModel()
	var slowdown float64
	for i := 0; i < b.N; i++ {
		dist.MinComm{}.Assign(p.Graph, 8)
		f := sim.Run(p.Graph, sim.Config{Localities: 8, Cores: 32, Model: cm, Sched: sim.FIFO})
		lv := sim.Run(p.Graph, sim.Config{Localities: 8, Cores: 32, Model: cm, Sched: sim.Levelwise})
		slowdown = lv.Makespan / f.Makespan
	}
	b.ReportMetric(slowdown, "slowdown-levelwise")
}

// BenchmarkDistributionPolicies is the placement ablation: remote traffic
// under the paper's merge-and-shift-aware policy vs block and cyclic.
func BenchmarkDistributionPolicies(b *testing.B) {
	p := cubePlan(b, dag.Advanced)
	for _, pol := range []dist.Policy{dist.Block{}, dist.Cyclic{}, dist.MinComm{}} {
		b.Run(pol.Name(), func(b *testing.B) {
			var bytes int64
			for i := 0; i < b.N; i++ {
				pol.Assign(p.Graph, 8)
				bytes = dist.RemoteBytes(p.Graph)
			}
			b.ReportMetric(float64(bytes), "remote-bytes")
		})
	}
}

// BenchmarkMergeAndShift is the advanced-vs-basic ablation: DAG size and
// simulated makespan of the two FMM variants on identical trees.
func BenchmarkMergeAndShift(b *testing.B) {
	adv := cubePlan(b, dag.Advanced)
	bas := cubePlan(b, dag.Basic)
	cm := sim.PaperCostModel()
	var mAdv, mBas float64
	for i := 0; i < b.N; i++ {
		dist.MinComm{}.Assign(adv.Graph, 4)
		dist.MinComm{}.Assign(bas.Graph, 4)
		mAdv = sim.Run(adv.Graph, sim.Config{Localities: 4, Cores: 32, Model: cm}).Makespan
		mBas = sim.Run(bas.Graph, sim.Config{Localities: 4, Cores: 32, Model: cm}).Makespan
	}
	b.ReportMetric(float64(adv.Graph.EdgeCount[dag.OpI2I]), "edges-I2I")
	b.ReportMetric(float64(bas.Graph.EdgeCount[dag.OpM2L]), "edges-M2L")
	b.ReportMetric(mBas/mAdv, "speedup-merge-and-shift")
}

// BenchmarkEvaluateRealRuntime is the end-to-end wall-clock benchmark of the
// goroutine runtime on this machine (one locality).
func BenchmarkEvaluateRealRuntime(b *testing.B) {
	p := cachedPlan(b, "real", func() *core.Plan {
		sp := points.Generate(points.Cube, 30000, 1)
		tp := points.Generate(points.Cube, 30000, 2)
		pl, err := core.NewPlan(sp, tp, kernel.NewLaplace(kernel.OrderForDigits(3)), paperOpts(dag.Advanced))
		if err != nil {
			b.Fatal(err)
		}
		return pl
	})
	q := points.Charges(30000, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := p.Evaluate(q, core.ExecOptions{Workers: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// hotPathLoop runs the steady-state evaluation loop with per-edge
// normalized memory metrics: bytes/edge and allocs/edge from MemStats
// deltas across the timed region, plus the raw edge census. These are the
// numbers the alloc gates bound.
func hotPathLoop(b *testing.B, p *core.Plan, pe *core.ParallelEvaluation, q []float64) {
	b.Helper()
	if _, _, err := pe.Run(q); err != nil { // warm the operator caches
		b.Fatal(err)
	}
	edges := float64(p.Graph.NumEdges())
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := pe.Run(q); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	den := float64(b.N) * edges
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/den, "bytes/edge")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/den, "allocs/edge")
	b.ReportMetric(edges, "edges")
}

// BenchmarkEvaluateHotPath is the end-to-end acceptance benchmark of the
// hot-path overhaul: repeated evaluation of one plan (cube, Laplace,
// N=50k) through a reusable ParallelEvaluation, the steady-state shape of
// a time-stepping application. The default advanced method carries list 2
// as plane waves, so batched execution covers the near field here (tiled
// P2P); allocs/op divided by the edges metric is the per-edge allocation
// count, which the executor keeps at ~0 via the prebuilt node tasks and
// pooled parcel batches.
func BenchmarkEvaluateHotPath(b *testing.B) {
	const n = 50000
	p := cachedPlan(b, "hotpath", func() *core.Plan {
		sp := points.Generate(points.Cube, n, 1)
		tp := points.Generate(points.Cube, n, 2)
		pl, err := core.NewPlan(sp, tp, kernel.NewLaplace(kernel.OrderForDigits(3)), paperOpts(dag.Advanced))
		if err != nil {
			b.Fatal(err)
		}
		return pl
	})
	q := points.Charges(n, 3)
	pe, err := p.NewParallelEvaluation(core.ExecOptions{Workers: 2})
	if err != nil {
		b.Fatal(err)
	}
	hotPathLoop(b, p, pe, q)
}

// BenchmarkEvaluateHotPathBatched is the same loop on the method batched
// execution targets hardest: the basic FMM carries all list-2 traffic as
// dense M->L edges, which the batch descriptors group by cached operator
// into multi-RHS applies.
func BenchmarkEvaluateHotPathBatched(b *testing.B) {
	const n = 50000
	p := cachedPlan(b, "hotpath-basic", func() *core.Plan {
		sp := points.Generate(points.Cube, n, 1)
		tp := points.Generate(points.Cube, n, 2)
		pl, err := core.NewPlan(sp, tp, kernel.NewLaplace(kernel.OrderForDigits(3)), paperOpts(dag.Basic))
		if err != nil {
			b.Fatal(err)
		}
		return pl
	})
	q := points.Charges(n, 3)
	pe, err := p.NewParallelEvaluation(core.ExecOptions{Workers: 2})
	if err != nil {
		b.Fatal(err)
	}
	hotPathLoop(b, p, pe, q)
}

// BenchmarkTunerLadder bounds what leaving Options.Threshold at zero costs
// at plan build: the leaf-size tuner on the benchmark's cube N=16k points
// must stay under 25 ms and under 20 % of one predicted evaluation of the
// plan it picks (the fastest iteration is held to the bounds — this box
// steals cores — and the mean is what is reported; the ladder costs the same
// 18–22 ms on every binding, so the share is 8 % where the portable pair loop
// makes that evaluation 0.28 s and 13 % at AVX2's 0.16 s, but 22–27 % where
// the AVX-512 one makes it 0.081 s: since PR 19 halved the far field this
// benchmark FAILS its share bound there. The bound stands; the ladder — four
// tree and DAG builds — is what has to get cheaper (ROADMAP item 1f).
// The time is never an input of the choice, so it is bounded here and not
// in tier-1.
func BenchmarkTunerLadder(b *testing.B) {
	const n = 16000
	sp := points.Generate(points.Cube, n, 1)
	tp := points.Generate(points.Cube, n, 2)
	var sum, fastest time.Duration
	var plan *core.Plan
	for i := 0; i < b.N; i++ {
		var err error
		plan, err = core.NewPlan(sp, tp, kernel.NewLaplace(kernel.OrderForDigits(3)), core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		d := plan.Tuning().Elapsed
		sum += d
		if i == 0 || d < fastest {
			fastest = d
		}
	}
	share := fastest.Seconds() * 1e9 / plan.PredictedNanos()
	b.ReportMetric(sum.Seconds()*1e3/float64(b.N), "tuner-ms")
	b.ReportMetric(fastest.Seconds()*1e3, "tuner-ms-fastest")
	b.ReportMetric(share, "tuner/predicted-eval")
	b.ReportMetric(float64(plan.Threshold()), "threshold")
	b.ReportMetric(float64(len(plan.Tuning().Candidates)), "candidates")
	if b.N < 5 {
		return // the harness's one-iteration probe is a cold process
	}
	if fastest > 25*time.Millisecond || share > 0.20 {
		b.Errorf("tuner took %v, %.0f%% of the predicted evaluation (%.3f s): bounds are 25 ms and 20%%",
			fastest, 100*share, plan.PredictedNanos()/1e9)
	}
}

// BenchmarkDirectSum measures the O(N^2) baseline so the FMM crossover is
// visible next to BenchmarkEvaluateRealRuntime.
func BenchmarkDirectSum(b *testing.B) {
	const n = 30000
	sp := points.Generate(points.Cube, n, 1)
	tp := points.Generate(points.Cube, n, 2)
	q := points.Charges(n, 3)
	k := kernel.NewLaplace(kernel.OrderForDigits(3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		baseline.Direct(k, sp, q, tp, 2)
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
