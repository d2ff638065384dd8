package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"math/bits"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/amt"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/dist"
	"repro/internal/geom"
	"repro/internal/kernel"
	"repro/internal/points"
	"repro/internal/sphharm"
	"repro/internal/trace"
	"repro/internal/tree"
)

// ledger is the state of one traced pass: the per-layer result, the span
// recorder and what earlier steps measured for later ones to use.
type ledger struct {
	e   *env
	w   *workload
	res *result
	rec *recorder
	tl  tally

	root int // id of the pass's root span
	b    *built

	warmRaw float64                 // median raw wall of untraced warm runs, seconds
	warmCal float64                 // the same, calibrated
	costUS  [dag.NumOpKinds]float64 // micro-timed cost of one application, µs
}

// tracedPass measures every layer from outside: benchmark-side spans
// around each public call, the program's own operator tracer for one
// evaluation, micro-timings on the workload's own kernel and DAG, and —
// for the served workloads — the daemon's reports under the same traffic
// as the untraced pass. Per-layer timings are raw (uncalibrated);
// core.calib_factor converts.
func (e *env) tracedPass(w *workload) (*result, error) {
	lg := &ledger{e: e, w: w, res: newResult(perLayer), rec: newRecorder()}
	var err error
	lg.root, _ = lg.rec.time(0, 0, "bench", "traced pass "+w.Name, func(root int) {
		lg.root = root
		steps := []func() error{lg.planBuild, lg.evaluate, lg.kernelMicro, lg.counts,
			lg.scheduler, lg.codec, lg.placement, lg.direct}
		if w.Kind != kindLibrary {
			steps = append(steps, lg.daemon)
		}
		for _, step := range steps {
			if err = step(); err != nil {
				return
			}
		}
	})
	if err != nil {
		return nil, err
	}
	path := filepath.Join(e.out, "trace-"+w.Name+".jsonl")
	if err := lg.rec.write(path); err != nil {
		return nil, err
	}
	self := lg.rec.selfByLayer()
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return self[layers[i]] > self[layers[j]] })
	for _, l := range layers {
		lg.res.notef("self time of the traced pass: %-16s %9.3f s", l, self[l])
	}
	lg.res.notef("spans written to %s", path)
	lg.res.Attempted, lg.res.Failed, lg.res.Correct = lg.tl.attempted, lg.tl.failed, lg.tl.failed == 0
	return lg.res, nil
}

// span times f as a child of the root span.
func (lg *ledger) span(layer, name string, f func()) float64 {
	_, d := lg.rec.time(lg.root, 0, layer, name, func(int) { f() })
	return d
}

// planBuild times the public sub-steps of plan construction on one fresh
// kernel and core.NewPlan as a whole on another; the residual is what
// NewPlan spends outside the sub-steps.
func (lg *ledger) planBuild() error {
	w := lg.w
	p := w.generate(pointSeed(lg.e.seed, 0))
	thr := w.Threshold
	if thr == 0 {
		thr = tree.Threshold
	}
	const reps = 4
	var tBuild, tLists, tPrep, tDag, tBatch, tPlan []float64
	var perr error
	whole := func() {
		runtime.GC()
		k := w.newKernel()
		tPlan = append(tPlan, lg.span("core", "NewPlan", func() {
			_, perr = core.NewPlan(p.src, p.tgt, k, core.Options{Method: w.Method, Threshold: w.Threshold})
		}))
	}
	// Which of the two goes first alternates, so neither always finds the
	// allocator warm.
	for r := 0; r < reps && perr == nil; r++ {
		if r%2 == 1 {
			whole()
		}
		runtime.GC()
		k := w.newKernel()
		dom := geom.BoundingCube(p.src, p.tgt)
		var src, tgt *tree.Tree
		var lists []tree.Lists
		var g *dag.Graph
		d := lg.span("tree", "Build source", func() { src = tree.Build(p.src, dom, thr) })
		d += lg.span("tree", "Build target", func() { tgt = tree.Build(p.tgt, dom, thr) })
		tBuild = append(tBuild, d)
		tLists = append(tLists, lg.span("tree", "DualLists", func() { lists = tree.DualLists(tgt, src) }))
		lvl := src.MaxLevel
		if tgt.MaxLevel > lvl {
			lvl = tgt.MaxLevel
		}
		tPrep = append(tPrep, lg.span("kernel", "Prepare", func() { k.Prepare(dom.Side, lvl+1) }))
		tDag = append(tDag, lg.span("dag", "Build", func() {
			g = dag.Build(dag.Config{Method: w.Method}, src, tgt, lists, k)
		}))
		tBatch = append(tBatch, lg.span("dag", "BuildBatches", func() { dag.BuildBatches(g, k) }))
		if r%2 == 0 {
			whole()
		}
	}
	if perr != nil {
		return perr
	}
	ms := func(xs []float64) float64 { return median(xs) * 1e3 }
	lg.res.set("tree.build_ms", ms(tBuild))
	lg.res.set("tree.lists_ms", ms(tLists))
	lg.res.set("kernel.prepare_ms", ms(tPrep))
	lg.res.set("dag.build_ms", ms(tDag))
	lg.res.set("dag.batches_ms", ms(tBatch))
	lg.res.set("core.new_plan_ms", ms(tPlan))
	lg.res.set("core.plan_residual_ms", ms(tPlan)-ms(tBuild)-ms(tLists)-ms(tPrep)-ms(tDag)-ms(tBatch))

	// The plan the rest of the pass measures.
	var err error
	lg.span("core", "NewPlan+NewParallelEvaluation", func() {
		lg.b, err = p.build(core.ExecOptions{Localities: 1, Workers: w.Workers, Seed: lg.e.seed})
	})
	return err
}

// evaluate runs the first (cold) evaluation, then alternates untraced and
// traced warm evaluations on the same plan, and analyses the last traced
// one with the program's own operator events.
func (lg *ledger) evaluate() error {
	w, b, e := lg.w, lg.b, lg.e
	run := func(pe *core.ParallelEvaluation, name string, i int) (wall, cpu float64, rep core.ExecReport, err error) {
		q := points.Charges(w.N, chargeSeed(e.seed, i))
		var pot []float64
		c0 := cpuSeconds()
		wall = lg.span("core", name, func() { pot, rep, err = pe.Run(q) })
		cpu = cpuSeconds() - c0
		var relErr float64
		if err == nil {
			relErr = b.check(pot, q, e.seed+int64(i))
			lg.res.set("core.rel_l2_err", relErr)
		}
		lg.tl.note(err, relErr)
		return
	}

	first, _, _, err := run(b.pe, "Run first", -1)
	if err != nil {
		return err
	}

	tr := trace.New(w.Workers)
	var peT *core.ParallelEvaluation
	lg.span("core", "NewParallelEvaluation traced", func() {
		peT, err = b.plan.NewParallelEvaluation(core.ExecOptions{Localities: 1, Workers: w.Workers, Seed: e.seed, Tracer: tr})
	})
	if err != nil {
		return err
	}
	// peT's first run allocates nothing lazily that b.pe's did not, but
	// give both one unmeasured warm run so the pairs start level.
	if _, _, _, err = run(peT, "Run warm-up traced", -2); err != nil {
		return err
	}

	var wallU, cpuU, calU, wallT, calibs []float64
	var lastRep, lastRepT core.ExecReport
	var tracedAt time.Time
	var tracedSpan int
	calib := e.cal.sample()
	start := time.Now()
	for i := 0; time.Since(start).Seconds() < e.seconds/2 || len(wallU) < 3; i++ {
		wu, cu, rep, err := run(b.pe, "Run warm", 2*i)
		if err != nil {
			return err
		}
		after := e.cal.sample()
		wallU, cpuU, lastRep = append(wallU, wu), append(cpuU, cu), rep
		calU = append(calU, calibrated(wu, calib, after))
		calibs = append(calibs, calib, after)

		tr.Reset()
		tracedAt = time.Now()
		q := points.Charges(w.N, chargeSeed(e.seed, 2*i+1))
		var pot []float64
		var wt float64
		tracedSpan, wt = lg.rec.time(lg.root, 0, "core", "Run warm traced", func(int) { pot, lastRepT, err = peT.Run(q) })
		if err != nil {
			return err
		}
		lg.tl.note(nil, b.check(pot, q, e.seed+int64(2*i+1)))
		wallT = append(wallT, wt)
		calib = e.cal.sample()
	}
	lg.warmRaw, lg.warmCal = median(wallU), median(calU)
	lg.res.set("core.first_eval_s", first)
	lg.res.set("core.first_eval_extra_s", first-lg.warmRaw)
	lg.res.set("core.raw_warm_eval_s", lg.warmRaw)
	lg.res.set("core.raw_warm_cpu_s", median(cpuU))
	lg.res.set("core.calib_factor", calibRefS/mean(calibs))
	lg.res.set("core.trace_overhead_ratio", median(wallT)/lg.warmRaw-1)
	lg.res.set("amt.tasks_per_eval", float64(lastRep.Runtime.TasksRun))
	lg.res.set("amt.steals_per_eval", float64(lastRep.Runtime.Steals))
	lg.res.set("amt.failed_steals_per_eval", float64(lastRep.Runtime.FailedSteals))

	// The last traced evaluation, by operator class.
	events := tr.Snapshot()
	wall := lastRepT.Elapsed.Seconds()
	var busy [dag.NumOpKinds]float64
	var count [dag.NumOpKinds]float64
	base := lg.rec.at(tracedAt)
	for _, ev := range events {
		if int(ev.Class) >= int(dag.NumOpKinds) {
			continue
		}
		busy[ev.Class] += float64(ev.End-ev.Start) * 1e-9
		count[ev.Class]++
		lg.rec.add(tracedSpan, 0, "core.op", opName(dag.OpKind(ev.Class)), base+ev.Start, base+ev.End)
	}
	var total float64
	for _, o := range opNames {
		lg.res.set("core.busy_s_"+o.name, busy[o.op])
		if count[o.op] > 0 {
			lg.res.set("core.mean_us_"+o.name, busy[o.op]/count[o.op]*1e6)
		}
		total += busy[o.op]
	}
	lg.res.set("core.busy_total_s", total)
	lg.res.set("core.exec_overhead_s", wall*float64(w.Workers)-total)
	lg.res.set("core.utilization_mean", total/(wall*float64(w.Workers)))
	if s, en := trace.Span(events); en > s {
		u := trace.Analyze(events, w.Workers, 10, s, en)
		lg.res.set("core.utilization_tail", u.Total[9])
	}
	crit, all := b.plan.Graph.CriticalPath(func(op dag.OpKind) float64 {
		if count[op] == 0 {
			return 0
		}
		return busy[op] / count[op]
	})
	if all > 0 {
		lg.res.set("dag.critical_path_ratio", crit/all)
	}

	// Heap traffic of one warm evaluation.
	var m0, m1 runtime.MemStats
	q := points.Charges(w.N, chargeSeed(e.seed, -3))
	runtime.ReadMemStats(&m0)
	_, _, err = b.pe.Run(q)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return err
	}
	lg.res.set("core.allocs_per_eval", float64(m1.Mallocs-m0.Mallocs))
	lg.res.set("core.bytes_per_eval", float64(m1.TotalAlloc-m0.TotalAlloc))

	// The single-goroutine reference executor on the same plan.
	var seqErr error
	var pot []float64
	seq := lg.span("core", "EvaluateSequential", func() { pot, seqErr = b.plan.EvaluateSequential(q) })
	var relErr float64
	if seqErr == nil {
		relErr = b.check(pot, q, e.seed)
	}
	lg.tl.note(seqErr, relErr)
	lg.res.set("core.seq_eval_s", seq)
	lg.res.set("core.par_speedup_2w", seq/lg.warmRaw)
	return seqErr
}

func opName(op dag.OpKind) string {
	for _, o := range opNames {
		if o.op == op {
			return o.name
		}
	}
	return "op"
}

// timeOp returns the cost of one call of f in nanoseconds: the best of
// three batches, each long enough (>= 10 ms; 1 ms in a smoke run) for the
// clock not to matter.
func (lg *ledger) timeOp(f func()) float64 {
	batch := 10 * time.Millisecond
	if lg.e.smoke {
		batch = time.Millisecond
	}
	f()
	n := 1
	for {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		if d := time.Since(t0); d >= batch || n >= 1<<22 {
			break
		}
		n *= 2
	}
	best := math.Inf(1)
	for b := 0; b < 3; b++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		if ns := float64(time.Since(t0)) / float64(n); ns < best {
			best = ns
		}
	}
	return best
}

// kernelMicro times every operator in isolation on the workload's own
// kernel, expansion order and box geometry (a deepest-level source leaf
// and its parent), plus the lazy table builds on a fresh kernel.
func (lg *ledger) kernelMicro() error {
	b, res := lg.b, lg.res
	k := b.kern
	src := b.plan.Source
	var leaf *tree.Box
	for _, bx := range src.Leaves {
		if bx.Parent != nil && (leaf == nil || bx.Level() > leaf.Level() ||
			(bx.Level() == leaf.Level() && bx.NPoints() > leaf.NPoints())) {
			leaf = bx
		}
	}
	if leaf == nil {
		return fmt.Errorf("source tree has no leaf below the root")
	}
	lvl, side := leaf.Level(), leaf.Side
	pts := src.Pts[leaf.Lo:leaf.Hi]
	q := points.Charges(len(pts), 5)
	ml := make([]complex128, k.MLSize())
	for i := range ml {
		ml[i] = complex(1/float64(i+1), 0.5/float64(i+2))
	}
	out := make([]complex128, k.MLSize())
	pot := make([]float64, len(pts))
	far := leaf.Center.Add(geom.Point{X: 2 * side})
	perPt := 1 / float64(len(pts))
	us := func(ns float64) float64 { return ns * 1e-3 }
	cost := &lg.costUS

	coef := sphharm.NewCoef(k.P())
	ynm := make([]complex128, sphharm.SqSize(k.P()))
	scratch := make([]float64, sphharm.TriSize(k.P()))
	res.set("sphharm.ynm_ns", lg.timeOp(func() { coef.Ynm(0.3, 1.1, ynm, scratch) }))
	rad := make([]float64, k.P()+1)
	res.set("sphharm.bessel_i_ns", lg.timeOp(func() { sphharm.BesselI(k.P(), 1.7, rad) }))

	cost[dag.OpS2M] = us(lg.timeOp(func() { k.S2M(leaf.Center, pts, q, out) })) * perPt
	res.set("kernel.s2m_ns_per_pt", cost[dag.OpS2M]*1e3)
	cost[dag.OpS2L] = us(lg.timeOp(func() { k.S2L(far, pts, q, out) })) * perPt
	res.set("kernel.s2l_ns_per_pt", cost[dag.OpS2L]*1e3)
	cost[dag.OpM2T] = us(lg.timeOp(func() { k.M2T(far, ml, pts, pot) })) * perPt
	res.set("kernel.m2t_ns_per_pt", cost[dag.OpM2T]*1e3)
	cost[dag.OpL2T] = us(lg.timeOp(func() { k.L2T(leaf.Center, ml, pts, pot) })) * perPt
	res.set("kernel.l2t_ns_per_pt", cost[dag.OpL2T]*1e3)

	pairs := float64(len(pts) * len(pts))
	s2t := lg.timeOp(func() { k.S2T(pts, q, pts, pot) }) / pairs
	res.set("kernel.s2t_ns_per_pair", s2t)
	cost[dag.OpS2T] = us(s2t)
	if bk, ok := k.(kernel.BatchKernel); ok {
		chunks := []kernel.P2PChunk{{Pts: pts, Q: q}}
		p2p := lg.timeOp(func() { bk.P2P(chunks, pts, pot) }) / pairs
		res.set("kernel.p2p_ns_per_pair", p2p)
		cost[dag.OpS2T] = us(p2p) // the executor's near field runs tiled

		const rhs = 16
		offs := make([]kernel.M2LOffset, rhs)
		ins, outs := make([][]complex128, rhs), make([][]complex128, rhs)
		for i := range offs {
			offs[i] = kernel.M2LOffset{DX: 2}
			ins[i] = ml
			outs[i] = make([]complex128, k.MLSize())
		}
		batch := us(lg.timeOp(func() { bk.M2LBatch(offs, side, lvl, ins, outs) })) / rhs
		res.set("kernel.m2l_batch_us_per_rhs", batch)
		cost[dag.OpM2L] = batch // the executor's list-2 M2L runs batched
	}
	m2l := us(lg.timeOp(func() { k.M2L(leaf.Center, far, side, ml, out) }))
	res.set("kernel.m2l_us", m2l)
	if cost[dag.OpM2L] == 0 {
		cost[dag.OpM2L] = m2l
	}
	cost[dag.OpM2M] = us(lg.timeOp(func() { k.M2M(leaf.Center, leaf.Parent.Center, side, ml, out) }))
	res.set("kernel.m2m_us", cost[dag.OpM2M])
	cost[dag.OpL2L] = us(lg.timeOp(func() { k.L2L(leaf.Parent.Center, leaf.Center, side, ml, out) }))
	res.set("kernel.l2l_us", cost[dag.OpL2L])
	res.set("kernel.ml_bytes", float64(16*k.MLSize()))

	wave := make([]complex128, k.ISize(lvl))
	wout := make([]complex128, k.ISize(lvl))
	for i := range wave {
		wave[i] = complex(1/float64(i+1), 0)
	}
	shift := geom.Point{X: side, Y: -side, Z: 2 * side} // a generic list-2 offset: no zero phase, no trivial sin/cos
	cost[dag.OpM2I] = us(lg.timeOp(func() { k.M2I(geom.Up, lvl, ml, wout) }))
	res.set("kernel.m2i_us", cost[dag.OpM2I])
	cost[dag.OpI2I] = us(lg.timeOp(func() { k.I2I(geom.Up, lvl, shift, wave, wout) }))
	res.set("kernel.i2i_us", cost[dag.OpI2I])
	cost[dag.OpI2L] = us(lg.timeOp(func() { k.I2L(geom.Up, lvl, wave, out) }))
	res.set("kernel.i2l_us", cost[dag.OpI2L])
	res.set("kernel.i_bytes", float64(16*k.ISize(lvl)))

	// Lazy table builds: the first call on a fresh kernel, less a warm one.
	fresh := lg.w.newKernel()
	fresh.Prepare(src.Domain.Side, src.MaxLevel+1)
	firstCall := func(name string, f func()) float64 {
		d := lg.span("kernel", name, f)
		return (d - lg.timeOp(f)*1e-9) * 1e3
	}
	res.set("kernel.m2l_build_ms", firstCall("M2L first (table build)", func() { fresh.M2L(leaf.Center, far, side, ml, out) }))
	res.set("kernel.m2i_build_ms", firstCall("M2I first (table build)", func() { fresh.M2I(geom.Up, lvl, ml, wout) }))
	return nil
}

// counts records the structure the timings ride on and closes the ledger:
// the micro-timed cost of every operator application the DAG holds,
// against the busy time the tracer saw.
func (lg *ledger) counts() error {
	p, res := lg.b.plan, lg.res
	g := p.Graph
	leaves := len(p.Source.Leaves) + len(p.Target.Leaves)
	lvl := p.Source.MaxLevel
	if p.Target.MaxLevel > lvl {
		lvl = p.Target.MaxLevel
	}
	res.set("tree.leaves", float64(leaves))
	res.set("tree.max_level", float64(lvl))
	res.set("tree.pts_per_leaf", float64(len(p.Source.Pts)+len(p.Target.Pts))/float64(leaves))
	res.set("dag.nodes", float64(len(g.Nodes)))
	res.set("dag.edges", float64(g.NumEdges()))
	for _, o := range opNames {
		res.set("dag.edges_"+o.name, float64(g.EdgeCount[o.op]))
	}

	// Units of work per class, counted the way the executor applies edges.
	var units [dag.NumOpKinds]float64
	for i := range g.Nodes {
		n := &g.Nodes[i]
		for _, e := range n.Out {
			to := &g.Nodes[e.To]
			switch e.Op {
			case dag.OpS2M, dag.OpS2L:
				units[e.Op] += float64(n.Box.NPoints())
			case dag.OpM2T, dag.OpL2T:
				units[e.Op] += float64(to.Box.NPoints())
			case dag.OpS2T:
				units[e.Op] += float64(n.Box.NPoints() * to.Box.NPoints())
			case dag.OpM2I:
				units[e.Op] += float64(bits.OnesCount8(e.DirMask))
			case dag.OpI2L:
				units[e.Op] += float64(bits.OnesCount8(n.OwnMask))
			case dag.OpI2I:
				if e.DirMask != 0 {
					units[e.Op] += float64(bits.OnesCount8(e.DirMask))
				} else {
					units[e.Op]++
				}
			default:
				units[e.Op]++
			}
		}
	}
	var predicted float64
	res.notef("ledger: %-4s %12s %10s %12s %10s", "op", "units", "micro us", "predicted s", "busy s")
	for _, o := range opNames {
		pred := units[o.op] * lg.costUS[o.op] * 1e-6
		predicted += pred
		if units[o.op] > 0 {
			res.notef("ledger: %-4s %12.0f %10.4g %12.4f %10.4f", o.name, units[o.op], lg.costUS[o.op],
				pred, res.Metrics["core.busy_s_"+o.name].Value)
		}
	}
	if busy := res.Metrics["core.busy_total_s"].Value; busy > 0 {
		res.set("core.ledger_residual_ratio", 1-predicted/busy)
	}
	return nil
}

// spinsPerMicro calibrates the spin loop the scheduler probe uses as a
// task body.
func spinsPerMicro() float64 {
	const n = 20_000_000
	t0 := time.Now()
	spinSink += spin(n)
	return n / (float64(time.Since(t0)) / 1e3)
}

var spinSink float64

func spin(n int) float64 {
	x := 1.0
	for i := 0; i < n; i++ {
		x = x*1.0000001 + 1e-9
	}
	return x
}

// scheduler runs the workload's own DAG shape on the amt runtime with the
// operators replaced by spin loops of a fixed grain (Task Bench's method):
// at grain 0 the wall time is pure scheduling — ns per task — and the
// grain at which half the core time is useful work is METG(50%).
func (lg *ledger) scheduler() error {
	g := lg.b.plan.Graph
	workers := lg.w.Workers
	n := len(g.Nodes)
	remaining := make([]atomic.Int32, n)
	tasks := make([]amt.Task, n)
	var iters int
	var sink atomic.Int64
	for i := range tasks {
		id := int32(i)
		tasks[i] = func(w *amt.Worker) {
			if iters > 0 {
				sink.Add(int64(spin(iters)))
			}
			for _, e := range g.Nodes[id].Out {
				if remaining[e.To].Add(-1) == 0 {
					w.Spawn(tasks[e.To])
				}
			}
		}
	}
	roots := g.Roots()
	rt := amt.New(amt.Config{Localities: 1, Workers: workers, Seed: lg.e.seed})
	once := func() float64 {
		for i := range remaining {
			remaining[i].Store(g.Nodes[i].In)
		}
		t0 := time.Now()
		rt.Run(func() {
			for _, id := range roots {
				rt.Locality(0).Spawn(tasks[id])
			}
		})
		d := time.Since(t0).Seconds()
		if err := rt.Reset(); err != nil {
			rt = amt.New(amt.Config{Localities: 1, Workers: workers, Seed: lg.e.seed})
		}
		return d
	}
	// wallAt is the best wall time of a DAG sweep at a grain, over enough
	// sweeps to fill ~50 ms (5 ms in a smoke run).
	fill := 0.05
	if lg.e.smoke {
		fill = 0.005
	}
	wallAt := func(grainUS float64, perMicro float64) float64 {
		iters = int(grainUS * perMicro)
		best := once()
		reps := int(fill/best) + 2
		if reps > 200 {
			reps = 200
		}
		for r := 0; r < reps; r++ {
			if d := once(); d < best {
				best = d
			}
		}
		return best
	}
	var empty float64
	lg.span("amt", "empty-task DAG sweeps", func() { empty = wallAt(0, 0) })
	lg.res.set("amt.empty_task_ns", empty*float64(workers)/float64(n)*1e9)

	perMicro := spinsPerMicro()
	var metg float64
	lg.span("amt", "METG grain sweep", func() {
		prevG, prevEff := 0.0, 0.0
		for grain := 1.0 / 32; grain <= 256; grain *= 2 {
			wall := wallAt(grain, perMicro)
			eff := float64(n) * grain * 1e-6 / (wall * float64(workers))
			if eff >= 0.5 {
				metg = grain
				if prevEff > 0 && eff > prevEff {
					// Interpolate in log-grain between the bracketing sweeps.
					f := (0.5 - prevEff) / (eff - prevEff)
					metg = prevG * math.Pow(grain/prevG, f)
				}
				return
			}
			prevG, prevEff = grain, eff
		}
		metg = 256
	})
	lg.res.set("amt.metg50_us", metg)
	return nil
}

// codec times the wire frame codec on a frame the size of one expansion
// parcel of this workload.
func (lg *ledger) codec() error {
	payload := make([]byte, 16*lg.b.kern.MLSize()+64)
	for i := range payload {
		payload[i] = byte(i)
	}
	f := amt.Frame{Kind: 1, Src: 0, Dst: 1, Epoch: 1, Seq: 42, Payload: payload}
	var buf []byte
	lg.res.set("amt.frame_encode_ns", lg.timeOp(func() { buf = amt.AppendFrame(buf[:0], &f) }))
	lg.res.set("amt.frame_overhead_bytes", float64(len(buf)-len(payload)))
	rd := bytes.NewReader(buf)
	br := bufio.NewReader(rd)
	var derr error
	lg.res.set("amt.frame_decode_ns", lg.timeOp(func() {
		rd.Reset(buf)
		br.Reset(rd)
		if _, err := amt.ReadFrame(br); err != nil {
			derr = err
		}
	}))
	return derr
}

// placement times the distribution policy for two localities and reports
// what it would put on the wire (computed from the graph, not measured).
func (lg *ledger) placement() error {
	g := lg.b.plan.Graph
	pol := dist.MinComm{}
	lg.res.set("dist.assign_ms", lg.span("dist", "MinComm.Assign(2)", func() { pol.Assign(g, 2) })*1e3)
	lg.res.set("dist.remote_edge_ratio", float64(dist.RemoteEdges(g))/float64(g.NumEdges()))
	lg.res.set("dist.remote_bytes", float64(dist.RemoteBytes(g)))
	pol.Assign(g, 1)
	return nil
}

// direct times the program's own O(N^2) summation on a slice of targets
// (about 3e7 pairs) on the workload's cores: the outside yardstick.
func (lg *ledger) direct() error {
	b := lg.b
	m := 30_000_000 / len(b.src)
	if m > len(b.tgt) {
		m = len(b.tgt)
	}
	if m < 1 {
		m = 1
	}
	q := points.Charges(len(b.src), 9)
	d := lg.span("baseline", "Direct", func() { baseline.Direct(b.kern, b.src, q, b.tgt[:m], workloadCores) })
	perPair := d / float64(m*len(b.src))
	lg.res.set("baseline.direct_ns_per_pair", perPair*1e9)
	lg.res.set("core.speedup_vs_direct", perPair*float64(len(b.src))*float64(len(b.tgt))/lg.warmRaw)
	return nil
}
