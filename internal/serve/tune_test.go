package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/dag/dagtest"
	"repro/internal/kernel"
	"repro/internal/points"
)

// The tuned default through the daemon: a request that leaves the threshold
// unset is served by the ordinary plan/cache/store path with whatever tree
// the cost model picks, every other rank and every later life of the daemon
// get that same tree without tuning, and the model's price of a plan is what
// admission holds against the deadline.

// A small request is a level-1 near-field plan, reported as such; nothing in
// the serving path knows it is special.
func TestServeSmallRequestFallsThroughToNearField(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const n = 2000
	code, resp, eb := post(t, ts.URL, Request{N: n})
	if code != http.StatusOK {
		t.Fatalf("HTTP %d: %v", code, eb)
	}
	rep := resp.Report
	if rep.Threshold <= n/8 || rep.Threshold >= n || rep.Leaves != 16 {
		t.Errorf("tuned plan: threshold %d, %d leaves; want a level-1 tree of 8+8 leaves", rep.Threshold, rep.Leaves)
	}
	if rep.DAGEdges != 64 {
		t.Errorf("%d DAG edges, want the 64 S→T edges of a level-1 plan", rep.DAGEdges)
	}
	if rep.PredictedEvalNS <= 0 {
		t.Errorf("predicted_eval_ns = %d", rep.PredictedEvalNS)
	}
	sp, tp := points.Generate(points.Cube, n, 1), points.Generate(points.Cube, n, 2)
	q := points.Charges(n, 3)
	// Exact to the rounding of the pair loop the daemon's kernel binds: 1e-12
	// on a float64 loop, and on a float32 one (kernel.PairKernel "…-f32")
	// that loop's documented bound, 2⁻¹³ of Σ|q|/r per target.
	k := kernel.NewLaplace(kernel.OrderForDigits(3))
	f32 := strings.HasSuffix(kernel.PairKernel(k), "-f32")
	for i := 0; i < n; i += 97 {
		var want, abs float64
		for j := range sp {
			want += q[j] * k.Direct(tp[i], sp[j])
			abs += math.Abs(q[j] * k.Direct(tp[i], sp[j]))
		}
		tol := 1e-12 * math.Abs(want)
		if f32 {
			tol = 0x1p-13 * abs
		}
		if d := math.Abs(resp.Potentials[i] - want); !(d <= tol) {
			t.Fatalf("potential %d off the direct sum by %.2e relative (%s pair loop): a near-field-only plan is exact", i, d/math.Abs(want), kernel.PairKernel(k))
		}
	}
	m := s.metrics.snapshot(s.cache.len(), nil)
	if len(m.PlansByLevel) != 2 || m.PlansByLevel[1] != 1 {
		t.Errorf("plans_by_max_level = %v, want one plan at level 1", m.PlansByLevel)
	}
	if code, warm, _ := post(t, ts.URL, Request{N: n}); code != http.StatusOK || !warm.Report.CacheHit || warm.Report.Threshold != rep.Threshold {
		t.Errorf("second request: HTTP %d, report %+v; want a cache hit on the same plan", code, warm)
	}
}

// One tree on every rank: the job payload is rank 0's plan spec, which
// carries the threshold rank 0's plan resolved, so a worker handed it builds
// the same DAG without running the tuner, through the same marshal ->
// unmarshal -> resolve -> ensureBuilt path runWorkerJob takes.
func TestJobSpecShipsResolvedThreshold(t *testing.T) {
	req := &Request{N: 20000} // past the crossover at every pair loop's price: the tuned tree has a far field
	if err := req.normalize(Config{}.withDefaults()); err != nil {
		t.Fatal(err)
	}
	rank0 := &planEntry{}
	if err := rank0.ensureBuilt(req, nil); err != nil {
		t.Fatal(err)
	}
	dagtest.RequireFarField(t, rank0.plan.Graph)
	if rank0.plan.Tuning() == nil {
		t.Fatal("rank 0's plan was not tuned")
	}

	payload, err := json.Marshal(specOf(req, rank0.plan))
	if err != nil {
		t.Fatal(err)
	}
	var spec planSpec
	if err := json.Unmarshal(payload, &spec); err != nil {
		t.Fatal(err)
	}
	wreq, thr, err := spec.resolve()
	if err != nil {
		t.Fatal(err)
	}
	if thr != rank0.plan.Threshold() || thr == 0 {
		t.Fatalf("job spec resolves to threshold %d, rank 0 resolved %d", thr, rank0.plan.Threshold())
	}
	wreq.Threshold = thr
	before := core.TunerEntries()
	worker := &planEntry{}
	if err := worker.ensureBuilt(&wreq, nil); err != nil {
		t.Fatal(err)
	}
	if got := core.TunerEntries() - before; got != 0 {
		t.Errorf("the worker's build entered the tuner %d times", got)
	}
	g0, g1 := rank0.plan.Graph, worker.plan.Graph
	if len(g0.Nodes) != len(g1.Nodes) || g0.EdgeCount != g1.EdgeCount {
		t.Errorf("worker DAG: %d nodes, edges %v; rank 0: %d, %v", len(g1.Nodes), g1.EdgeCount, len(g0.Nodes), g0.EdgeCount)
	}
}

// The store records the resolved threshold beside the skeleton, under a key
// that still says thr=0: a restarted daemon serves the tuned key from the
// revived plan, reports the same threshold, and never tunes.
func TestStoreRevivesTunedPlanWithoutTuning(t *testing.T) {
	dir := t.TempDir()
	req := Request{N: 7000}

	s1 := New(Config{})
	st1, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1.UseStore(st1)
	ts1 := httptest.NewServer(s1.Handler())
	code, first, eb := post(t, ts1.URL, req)
	ts1.Close()
	if code != http.StatusOK {
		t.Fatalf("first life: HTTP %d: %v", code, eb)
	}
	recs := loadAll(t, st1)
	if len(recs) != 1 {
		t.Fatalf("store after one request: %d records", len(recs))
	}
	if recs[0].Threshold != first.Report.Threshold || recs[0].Spec.Threshold != 0 || !strings.HasSuffix(recs[0].Key, "thr=0") {
		t.Errorf("record: resolved threshold %d, spec threshold %d, key %q; want %d, 0 and a thr=0 key",
			recs[0].Threshold, recs[0].Spec.Threshold, recs[0].Key, first.Report.Threshold)
	}

	before := core.TunerEntries()
	s2 := New(Config{})
	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2.UseStore(st2)
	if recovered, skipped, err := s2.RecoverFromStore(); err != nil || recovered != 1 || skipped != 0 {
		t.Fatalf("recovery: %d recovered, %d skipped, %v", recovered, skipped, err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	code, second, eb := post(t, ts2.URL, req)
	if code != http.StatusOK {
		t.Fatalf("second life: HTTP %d: %v", code, eb)
	}
	if !second.Report.StoreHit || second.Report.PlanBuild != 0 || second.Report.Threshold != first.Report.Threshold ||
		second.Report.DAGEdges != first.Report.DAGEdges {
		t.Errorf("second life report %+v; want a store hit on the first life's plan (threshold %d, %d edges)",
			second.Report, first.Report.Threshold, first.Report.DAGEdges)
	}
	if got := core.TunerEntries() - before; got != 0 {
		t.Errorf("the restarted daemon entered the tuner %d times", got)
	}
	for i := range first.Potentials {
		scale := math.Max(1, math.Abs(first.Potentials[i]))
		if d := math.Abs(second.Potentials[i]-first.Potentials[i]) / scale; d > 1e-12 {
			t.Fatalf("potential %d differs between lives by %.2e", i, d)
		}
	}
}

// A store directory written before the tuner existed: an unset threshold
// meant the paper's 60 and the record says nothing more. The restarted
// daemon revives it with zero rebuilds, serves the thr=0 key from the
// level-2 tree it holds, and would ship 60 to its worker ranks.
func TestStoreRevivesPreTunerRecord(t *testing.T) {
	const n = 1500
	req := Request{N: n}
	if err := req.normalize(Config{}); err != nil {
		t.Fatal(err)
	}
	src, tgt := req.ensembles()
	old, err := core.NewPlan(src, tgt, req.newKernel(), core.Options{Threshold: 60})
	if err != nil {
		t.Fatal(err)
	}
	dagtest.RequireFarField(t, old.Graph)
	want, _, err := old.Evaluate(req.chargeVector(), core.ExecOptions{Localities: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	rec := recordFor(&req, old)
	rec.Threshold = 0 // what a PR-16 daemon wrote: the spec alone, threshold omitted
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Put(rec); err != nil {
		t.Fatal(err)
	}

	before := core.TunerEntries()
	s := New(Config{})
	s.UseStore(st)
	if recovered, skipped, err := s.RecoverFromStore(); err != nil || recovered != 1 || skipped != 0 {
		t.Fatalf("recovery: %d recovered, %d skipped, %v", recovered, skipped, err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	code, resp, eb := post(t, ts.URL, Request{N: n, Workers: 1, Localities: 1})
	if code != http.StatusOK {
		t.Fatalf("HTTP %d: %v", code, eb)
	}
	if !resp.Report.StoreHit || resp.Report.Threshold != 60 || resp.Report.DAGEdges != old.Graph.NumEdges() {
		t.Errorf("report %+v; want a store hit on the threshold-60 plan (%d edges)", resp.Report, old.Graph.NumEdges())
	}
	m := s.metrics.snapshot(s.cache.len(), nil)
	if m.CacheMisses != 0 || m.PlanBuild.Count != 0 || core.TunerEntries() != before {
		t.Errorf("revived key cost a rebuild: %d misses, %d builds, %d tuner entries",
			m.CacheMisses, m.PlanBuild.Count, core.TunerEntries()-before)
	}
	for i := range want {
		if d := math.Abs(resp.Potentials[i]-want[i]) / math.Max(1, math.Abs(want[i])); d > 1e-12 {
			t.Fatalf("potential %d off the threshold-60 evaluation by %.2e", i, d)
		}
	}
}

// Regression: threshold was validated only as non-negative, so n=200000 with
// threshold=200000 was admitted, built a single-leaf plan and ran 4e10 pairs
// in one uncancellable S→T task, minutes past its deadline. The plan is now
// priced before anything runs and the request refused with a 400 that says
// why. The pair price depends on the pair loop the machine binds (a factor
// of six between them), so the deadlines and sizes here are derived from it:
// the refusals are refusals on every tier and under -tags purego.
func TestServeRefusesPlanPricedBeyondDeadline(t *testing.T) {
	k := kernel.NewLaplace(kernel.OrderForDigits(3))
	k.Prepare(1, 0)
	pairNanos := kernel.Price(k, 0).S2T

	// Half of what 4e10 pairs are priced at: 12 s to 76 s.
	const big = 200000
	limit := time.Duration(big * big * pairNanos / 2).Round(time.Second)
	s := New(Config{DefaultDeadline: limit})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	start := time.Now()
	code, _, eb := post(t, ts.URL, Request{N: big, Threshold: big})
	took := time.Since(start)
	if code != http.StatusBadRequest {
		t.Fatalf("HTTP %d, want 400", code)
	}
	if !strings.Contains(eb.Error, "predicted evaluation time") || !strings.Contains(eb.Error, limit.String()+" deadline") {
		t.Errorf("error %q does not carry the predicted seconds and the %v deadline", eb.Error, limit)
	}
	if took > time.Second {
		t.Errorf("refusal took %v, want under a second", took)
	}
	waitFor(t, "inflight to drain", func() bool { return s.metrics.inflight.Load() == 0 })
	if got := s.Metrics().BadRequest; got != 1 || s.Metrics().Failed != 0 {
		t.Errorf("bad_request=%d failed=%d, want 1 and 0", got, s.Metrics().Failed)
	}
	if got := s.cache.len(); got != 0 {
		t.Errorf("the refused plan (400k points) holds a cache slot: %d cached plans", got)
	}
	// Threads the machine does not have buy no time: the same plan asked for
	// on 256 workers is priced on the threads its context runs, the cores
	// there are — against half of what they need — and refused, in words
	// that say so. (Priced on the 256, it was admitted and held a slot for
	// minutes.)
	cores := runtime.GOMAXPROCS(0)
	short := int((limit / time.Duration(cores)).Milliseconds())
	code, _, eb = post(t, ts.URL, Request{N: big, Threshold: big, Workers: 256, DeadlineMS: short})
	if code != http.StatusBadRequest || !strings.Contains(eb.Error, fmt.Sprintf("on %d of this machine's %d cores,", s.workers, cores)) {
		t.Errorf("256 workers on %d cores against %d ms: HTTP %d %v, want a 400 naming the cores it priced", cores, short, code, eb)
	}

	// The same plan fits a deadline long enough, so the refusal is the
	// request's, not the key's; nobody waits for that here. A request that
	// states its own short deadline is held to it: a single leaf priced at
	// 25 ms on the context's threads (2.6k to 6.5k points per thread)
	// against 10 ms...
	n := int(math.Sqrt(float64(s.workers) * 25e6 / pairNanos))
	code, _, eb = post(t, ts.URL, Request{N: n, Threshold: n, DeadlineMS: 10})
	if code != http.StatusBadRequest || !strings.Contains(eb.Error, "10ms deadline") {
		t.Errorf("%d^2 pairs against a 10ms deadline: HTTP %d %v, want a 400 naming the deadline", n, code, eb)
	}
	// ... is admitted against 30 ms, and a tuned request of the same size
	// is nowhere near any of this.
	if code, _, eb := post(t, ts.URL, Request{N: n, Threshold: n, DeadlineMS: 30}); code != http.StatusOK {
		t.Errorf("the same plan on %d threads against 30 ms: HTTP %d %v, want 200", s.workers, code, eb)
	}
	code, resp, eb := post(t, ts.URL, Request{N: n})
	if code != http.StatusOK {
		t.Fatalf("tuned request: HTTP %d %v", code, eb)
	}
	if resp.Report.Leaves < 16 || resp.Report.DAGEdges < int64(dag.NumOpKinds) {
		t.Errorf("tuned request report %+v", resp.Report)
	}
}

// Regression: every finite λ > 0 passes validation, and a large one either
// panicked the plan build — at λ = 1e300 the plane-wave cutoff was Inf − Inf
// = NaN and the rule a slice of impossible length: the connection dropped,
// the key stayed latched so each later request for it waited out its
// deadline for a 503, and /metrics lost the outcome — or built a rule that
// grows linearly in λ (28 M terms at λ = 1e6). A rule past the kernel's
// bound is now a 400 that names λ, before anything is built; smaller λ are
// served as before.
func TestServeRefusesLambdaPastRuleBound(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const n = 3000
	for _, lambda := range []float64{1e7, 1e300} {
		for try := 0; try < 2; try++ { // the second request for the key is answered alike, not latched
			start := time.Now()
			code, _, eb := post(t, ts.URL, Request{N: n, Kernel: "yukawa", Lambda: lambda})
			took := time.Since(start)
			if code != http.StatusBadRequest || !strings.Contains(eb.Error, fmt.Sprintf("lambda %g", lambda)) {
				t.Fatalf("λ = %g, request %d: HTTP %d %v, want a 400 naming λ", lambda, try, code, eb)
			}
			if took > time.Second {
				t.Errorf("λ = %g, request %d: refusal took %v, want under a second", lambda, try, took)
			}
		}
	}
	if got := s.cache.len(); got != 0 {
		t.Errorf("the refused keys hold %d cache slots", got)
	}
	if code, _, eb := post(t, ts.URL, Request{N: n}); code != http.StatusOK {
		t.Errorf("Laplace request after the refusals: HTTP %d %v", code, eb)
	}
	sp := points.Generate(points.Cube, n, 1)
	tp := points.Generate(points.Cube, n, 2)
	q := points.Charges(n, 3)
	for _, lambda := range []float64{4, 1e4} {
		code, resp, eb := post(t, ts.URL, Request{N: n, Kernel: "yukawa", Lambda: lambda})
		if code != http.StatusOK {
			t.Errorf("λ = %g: HTTP %d %v", lambda, code, eb)
			continue
		}
		k := kernel.NewYukawa(kernel.OrderForDigits(3), lambda)
		var num, den float64
		for i := 0; i < n; i += 15 {
			var want float64
			for j, p := range sp {
				want += q[j] * k.Direct(tp[i], p)
			}
			d := resp.Potentials[i] - want
			num, den = num+d*d, den+want*want
		}
		if !(den > 0) || math.Sqrt(num/den) > 1e-3 {
			t.Errorf("λ = %g: error norm %.3g against a direct-sum norm of %.3g", lambda, math.Sqrt(num), math.Sqrt(den))
		}
	}
	requireConserved(t, s)
	if m := s.metrics.snapshot(s.cache.len(), nil); m.BadRequest != 4 || m.OK != 3 || m.Failed != 0 {
		t.Errorf("bad_request=%d ok=%d failed=%d, want 4, 3, 0", m.BadRequest, m.OK, m.Failed)
	}
}

// Degenerate inline ensembles through POST /evaluate: a 200 with the direct
// sum's numbers (or a 400 that names the problem) — never a 500, a hang or a
// NaN.
func TestServeDegenerateInlineEnsembles(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const n = 400
	cube := points.Generate(points.Cube, n, 5)
	shape := func(f func(i int) [3]float64) [][3]float64 {
		out := make([][3]float64, n)
		for i := range out {
			out[i] = f(i)
		}
		return out
	}
	cases := []struct {
		name string
		pts  [][3]float64
	}{
		{"one point", [][3]float64{{0.1, 0.2, 0.3}}},
		{"coincident", shape(func(int) [3]float64 { return [3]float64{0.3, -0.2, 0.7} })},
		{"collinear", shape(func(i int) [3]float64 { return [3]float64{cube[i].X, 2 * cube[i].X, -cube[i].X} })},
		{"planar", shape(func(i int) [3]float64 { return [3]float64{cube[i].X, cube[i].Y, 0.5} })},
		{"scaled 1e+12", shape(func(i int) [3]float64 { return [3]float64{1e12 * cube[i].X, 1e12 * cube[i].Y, 1e12 * cube[i].Z} })},
		{"scaled 1e-12", shape(func(i int) [3]float64 { return [3]float64{1e-12 * cube[i].X, 1e-12 * cube[i].Y, 1e-12 * cube[i].Z} })},
	}
	k := kernel.NewLaplace(kernel.OrderForDigits(3))
	for _, c := range cases {
		for _, thr := range []int{0, paperThr} {
			req := Request{Sources: c.pts, Targets: c.pts, Threshold: thr, DeadlineMS: 20_000}
			code, resp, eb := post(t, ts.URL, req)
			if code == http.StatusBadRequest && eb.Error != "" {
				continue
			}
			if code != http.StatusOK {
				t.Errorf("%s, threshold %d: HTTP %d %v", c.name, thr, code, eb)
				continue
			}
			pts := toGeom(c.pts)
			q := points.Charges(len(pts), 3)
			var num, den float64
			for i, tp := range pts {
				var want float64
				for j, sp := range pts {
					want += q[j] * k.Direct(tp, sp)
				}
				got := resp.Potentials[i]
				if math.IsNaN(got) || math.IsInf(got, 0) {
					t.Fatalf("%s, threshold %d: potential %d is %v", c.name, thr, i, got)
				}
				num += (got - want) * (got - want)
				den += want * want
			}
			if (den == 0 && num != 0) || (den > 0 && math.Sqrt(num/den) > 1e-3) {
				t.Errorf("%s, threshold %d (resolved %d): error norm %.3g against a direct-sum norm of %.3g",
					c.name, thr, resp.Report.Threshold, math.Sqrt(num), math.Sqrt(den))
			}
		}
	}
	if s.Metrics().Failed != 0 || s.metrics.inflight.Load() != 0 {
		t.Errorf("failed=%d inflight=%d after the degenerate requests", s.Metrics().Failed, s.metrics.inflight.Load())
	}
}

// The cache holds CacheSize plans, the store every plan ever spilled: a
// restarted daemon answers each of them from the store however many there
// are, the ones recovery had no room for by reviving their record on first
// request. (The benchmark's restart check found this: once small requests
// got fast enough to spill more cold keys in a window than the cache holds,
// the key it asked for after the restart was rebuilt from scratch.)
// Recovery reads one record at a time and stops when the cache is full: it
// revives two of the five here (it used to decode all five at once and
// evict three again).
func TestStoreServesKeysBeyondCacheCapacity(t *testing.T) {
	dir := t.TempDir()
	const keys = 5
	reqFor := func(k int) Request { return Request{N: 600, Seed: int64(10 + k), Threshold: paperThr} }

	s1 := New(Config{CacheSize: 2})
	st1, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1.UseStore(st1)
	ts1 := httptest.NewServer(s1.Handler())
	first := make([]*Response, keys)
	for k := range first {
		code, resp, eb := post(t, ts1.URL, reqFor(k))
		if code != http.StatusOK {
			t.Fatalf("first life, key %d: HTTP %d %v", k, code, eb)
		}
		first[k] = resp
	}
	ts1.Close()

	before := core.TunerEntries()
	s2 := New(Config{CacheSize: 2})
	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2.UseStore(st2)
	if recovered, skipped, err := s2.RecoverFromStore(); err != nil || recovered != 2 || skipped != 0 {
		t.Fatalf("recovery: %d recovered, %d skipped, %v; want the cache's 2", recovered, skipped, err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	for k := range first {
		code, resp, eb := post(t, ts2.URL, reqFor(k))
		if code != http.StatusOK {
			t.Fatalf("second life, key %d: HTTP %d %v", k, code, eb)
		}
		if !resp.Report.StoreHit {
			t.Errorf("second life, key %d: not served from the store: %+v", k, resp.Report)
		}
		for i := range resp.Potentials {
			if d := math.Abs(resp.Potentials[i]-first[k].Potentials[i]) / math.Max(1, math.Abs(first[k].Potentials[i])); d > 1e-12 {
				t.Fatalf("key %d potential %d differs between lives by %.2e", k, i, d)
			}
		}
	}
	m := s2.metrics.snapshot(s2.cache.len(), nil)
	if m.PlanBuild.Count != 0 || m.StoreWrites != 0 || m.StoreCorrupt != 0 || core.TunerEntries() != before {
		t.Errorf("second life: %d plan builds, %d store writes, %d corrupt records, %d tuner entries; want none",
			m.PlanBuild.Count, m.StoreWrites, m.StoreCorrupt, core.TunerEntries()-before)
	}
	if m.StoreHits != keys || m.CacheMisses == 0 {
		t.Errorf("second life: store_hits=%d cache_misses=%d, want %d store hits with some misses revived on request",
			m.StoreHits, m.CacheMisses, keys)
	}
}
