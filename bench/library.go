package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/kernel"
	"repro/internal/points"
	"repro/internal/serve"
)

// problem is one generated instance of a workload: ensembles from the
// seed, nothing else. The program under test sees only these.
type problem struct {
	w        *workload
	src, tgt []geom.Point
	seed     int64 // source seed; targets use seed+1 (the daemon's convention)
}

// pointSeed derives the ensemble seed of the i-th geometry of a run. Seeds
// are spaced by two because targets take seed+1.
func pointSeed(runSeed int64, i int) int64 { return runSeed*100003 + int64(2*i) + 11 }

// chargeSeed derives the i-th charge vector's seed of a run.
func chargeSeed(runSeed int64, i int) int64 { return runSeed*100019 + int64(i) + 7 }

func (w *workload) generate(seed int64) *problem {
	return &problem{
		w:    w,
		src:  points.Generate(w.Dist, w.N, seed),
		tgt:  points.Generate(w.Dist, w.N, seed+1),
		seed: seed,
	}
}

// built is a problem with its plan and a parallel evaluation context.
type built struct {
	*problem
	kern kernel.Kernel
	plan *core.Plan
	pe   *core.ParallelEvaluation
}

func (p *problem) build(opts core.ExecOptions) (*built, error) {
	k := p.w.newKernel()
	plan, err := core.NewPlan(p.src, p.tgt, k, core.Options{Method: p.w.Method, Threshold: p.w.Threshold})
	if err != nil {
		return nil, err
	}
	pe, err := plan.NewParallelEvaluation(opts)
	if err != nil {
		return nil, err
	}
	return &built{problem: p, kern: k, plan: plan, pe: pe}, nil
}

// check compares a potential vector with direct summation at a sample of
// targets drawn from checkSeed. A vector of the wrong length is infinitely
// wrong.
func (p *problem) check(pot, q []float64, checkSeed int64) float64 {
	if len(pot) != len(p.tgt) {
		return math.Inf(1)
	}
	idx := sampleTargets(len(p.tgt), checkSeed)
	return p.w.relL2(sampleAt(pot, idx), p.src, p.tgt, q, idx)
}

// sampleAt picks the values of v at idx.
func sampleAt(v []float64, idx []int) []float64 {
	out := make([]float64, len(idx))
	for i, ti := range idx {
		out[i] = v[ti]
	}
	return out
}

// cpuSeconds is this process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)*1e-6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// tally counts attempts and failures of one pass.
type tally struct {
	attempted, failed int
}

// note records one checked result; it reports whether the result passed.
func (t *tally) note(err error, relErr float64) bool {
	t.attempted++
	if err != nil || !(relErr <= checkTol) {
		t.failed++
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: failed operation: %v\n", err)
		} else {
			fmt.Fprintf(os.Stderr, "bench: failed check: relative L2 error %.3g > %.0e\n", relErr, checkTol)
		}
		return false
	}
	return true
}

// libraryPass is the untraced end-to-end pass of an in-process workload.
func (e *env) libraryPass(w *workload) (*result, error) {
	res := newResult(endToEnd)
	var tl tally
	opts := core.ExecOptions{Localities: 1, Workers: w.Workers, Seed: e.seed}

	// Set-up, several times over fresh geometries: inputs to first checked
	// result. The last one is kept warm for the measurement window.
	var setup, cold, coldRaw []float64
	var b *built
	calib := e.cal.sample()
	for r := 0; r < w.Setups; r++ {
		b = nil
		runtime.GC()
		t0 := time.Now()
		p := w.generate(pointSeed(e.seed, r))
		q := points.Charges(w.N, chargeSeed(e.seed, -1-r))
		t1 := time.Now()
		nb, err := p.build(opts)
		var pot []float64
		if err == nil {
			pot, _, err = nb.pe.Run(q)
		}
		t2 := time.Now()
		after := e.cal.sample()
		var relErr float64
		if err == nil {
			relErr = p.check(pot, q, e.seed+int64(r))
		}
		if tl.note(err, relErr) {
			setup = append(setup, calibrated(t2.Sub(t0).Seconds(), calib, after))
			cold = append(cold, calibrated(t2.Sub(t1).Seconds(), calib, after))
			coldRaw = append(coldRaw, t2.Sub(t1).Seconds())
		}
		calib = after
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", r, err)
		}
		b = nb
	}

	// Warm window: closed loop, one evaluation at a time (the iterative
	// solver's pattern), a fresh charge vector each, calibration between.
	var wall, wallRaw, cpu []float64
	calibs := []float64{calib}
	rng := rand.New(rand.NewSource(e.seed))
	start := time.Now()
	for i := 0; time.Since(start).Seconds() < e.seconds || len(wall) < e.minSamples(); i++ {
		q := points.Charges(w.N, chargeSeed(e.seed, i))
		c0 := cpuSeconds()
		t0 := time.Now()
		pot, _, err := b.pe.Run(q)
		dt := time.Since(t0).Seconds()
		dc := cpuSeconds() - c0
		after := e.cal.sample()
		var relErr float64
		if err == nil {
			relErr = b.check(pot, q, rng.Int63())
		}
		if tl.note(err, relErr) {
			wall = append(wall, calibrated(dt, calib, after))
			wallRaw = append(wallRaw, dt)
			cpu = append(cpu, calibrated(dc, calib, after))
		}
		calib = after
		calibs = append(calibs, after)
		if i > 10000 {
			break
		}
	}
	if len(wall) == 0 || len(setup) == 0 {
		return nil, fmt.Errorf("no successful evaluation")
	}

	heapMB := liveHeapMB()
	storeMB, err := e.spillPlan(b) // also keeps the plan reachable across the collection above
	if err != nil {
		return nil, err
	}
	res.describe("cold_eval_s", cold, coldRaw)
	res.describe("warm_eval_s", wall, wallRaw)
	res.describeCalib(calibs)
	res.set("setup_s", median(setup))
	res.set("cold_eval_s", median(cold))
	res.set("warm_eval_s", median(wall))
	res.set("eval_cpu_s", median(cpu))
	res.set("evals_per_s", 1/median(wall)) // one stream, one evaluation per round: the median round's rate
	res.notef("peak resident set (VmHWM): %.1f MB", procMem(os.Getpid(), "VmHWM:"))
	res.set("live_heap_mb", heapMB)
	res.set("store_mb_per_plan", storeMB)
	res.Attempted, res.Failed, res.Correct = tl.attempted, tl.failed, tl.failed == 0
	return res, nil
}

// liveHeapMB is this process's heap after a forced collection: the plan,
// its tables and evaluation contexts (plus the benchmark's own inputs and
// calibration arrays, a constant). Peak resident set is printed beside it
// but is not the metric: under GOGC it lands anywhere between one and two
// times the live heap depending on where the collector's cycles fall, and
// spread 21% over ten runs of the sphere workload.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC() // the second cycle frees what the first one's finalizers released
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// minSamples is the least number of timed samples a window must hold.
func (e *env) minSamples() int {
	if e.smoke {
		return 2
	}
	return minSamples
}

// spillPlan writes the warm plan into a scratch plan store exactly as the
// daemon spills one (spec + tree skeletons + the dense operator tables
// built so far) and returns the record size in MB.
func (e *env) spillPlan(b *built) (float64, error) {
	dir, err := os.MkdirTemp(e.out, "store-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	st, err := serve.OpenStore(filepath.Join(dir, "plans"))
	if err != nil {
		return 0, err
	}
	rec := &serve.PlanRecord{
		Key: b.w.Name,
		Spec: serve.Request{
			Distribution: b.w.Dist.String(), N: b.w.N, Seed: b.seed,
			Kernel: b.w.kernelName(), Lambda: b.w.Lambda, Digits: digits, Threshold: b.w.Threshold,
		},
		Source: b.plan.Source.Skeleton(),
		Target: b.plan.Target.Skeleton(),
	}
	if oc, ok := b.kern.(kernel.OperatorCache); ok {
		rec.Ops = oc.ExportOperators()
	}
	n, err := st.Put(rec)
	if err != nil {
		return 0, err
	}
	return float64(n) / 1e6, nil
}
