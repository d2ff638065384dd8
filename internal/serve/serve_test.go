package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dag/dagtest"
	"repro/internal/kernel"
	"repro/internal/points"
	"repro/internal/trace"
	"repro/internal/tree"
)

// paperThr pins this suite's requests and reference plans to the paper's
// refinement threshold. At the few thousand points they use, a request that
// leaves the threshold to the tuner is served by a level-1 tree with no far
// field at all; the gates here — 1e-12 against a direct core evaluation,
// the store's operator round trip, a re-run after a mid-run death — are about the far
// field too. The tuned default has its own tests (tune_test.go).
const paperThr = tree.Threshold

func post(t *testing.T, url string, req Request) (int, *Response, *errorBody) {
	t.Helper()
	code, resp, eb, _ := postHeader(t, url, req)
	return code, resp, eb
}

// postHeader is post that also returns the reply's header.
func postHeader(t *testing.T, url string, req Request) (int, *Response, *errorBody, http.Header) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.Post(url+"/evaluate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	if hr.StatusCode == http.StatusOK {
		var resp Response
		if err := json.NewDecoder(hr.Body).Decode(&resp); err != nil {
			t.Fatalf("decoding 200 body: %v", err)
		}
		return hr.StatusCode, &resp, nil, hr.Header
	}
	var eb errorBody
	if err := json.NewDecoder(hr.Body).Decode(&eb); err != nil {
		t.Fatalf("decoding %d body: %v", hr.StatusCode, err)
	}
	return hr.StatusCode, nil, &eb, hr.Header
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// requireConserved waits for the server's handlers to return and holds its
// outcome counters to their conservation identity: every request it
// received moved exactly one of them.
func requireConserved(t *testing.T, s *Server) {
	t.Helper()
	waitFor(t, "handlers to return", func() bool { return s.metrics.inflight.Load() == 0 })
	m := s.metrics.snapshot(s.cache.len(), nil)
	if sum := m.OK + m.BadRequest + m.Shed + m.Deadline + m.Failed; m.Requests != sum {
		t.Errorf("requests=%d but ok=%d + bad_request=%d + shed=%d + deadline=%d + failed=%d = %d",
			m.Requests, m.OK, m.BadRequest, m.Shed, m.Deadline, m.Failed, sum)
	}
}

// Cold vs warm requests: the first request builds the plan (cache miss), the
// second serves from the cache on a pooled runtime, and both match a direct
// core evaluation of the same problem to 1e-12.
func TestServeCacheHitMatchesDirectEvaluation(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := Request{N: 2000, Threshold: paperThr, Workers: 1, Localities: 1}
	code, cold, _ := post(t, ts.URL, req)
	if code != http.StatusOK {
		t.Fatalf("cold request: HTTP %d", code)
	}
	if cold.Report.CacheHit {
		t.Error("first request reported a cache hit")
	}
	if cold.Report.PlanBuild <= 0 {
		t.Error("cold request reports no plan-build time")
	}

	code, warm, _ := post(t, ts.URL, req)
	if code != http.StatusOK {
		t.Fatalf("warm request: HTTP %d", code)
	}
	if !warm.Report.CacheHit {
		t.Error("second identical request missed the cache")
	}
	if !warm.Report.RuntimeReused {
		t.Error("second identical request did not reuse the pooled runtime")
	}
	if warm.Report.PlanBuild != 0 {
		t.Errorf("warm request reports plan-build time %v", warm.Report.PlanBuild)
	}

	// Direct core evaluation of the identical problem, same execution
	// shape: the served potentials must match to 1e-12 (same DAG, same
	// single-worker execution order), and cold must match warm exactly as
	// tightly (cached state fully reset between runs).
	sp := points.Generate(points.Cube, 2000, 1)
	tp := points.Generate(points.Cube, 2000, 2)
	k := kernel.NewLaplace(kernel.OrderForDigits(3))
	plan, err := core.NewPlan(sp, tp, k, core.Options{Threshold: paperThr})
	if err != nil {
		t.Fatal(err)
	}
	dagtest.RequireFarField(t, plan.Graph)
	want, _, err := plan.Evaluate(points.Charges(2000, 3), core.ExecOptions{Localities: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(cold.Potentials) != len(want) {
		t.Fatalf("%d potentials, want %d", len(cold.Potentials), len(want))
	}
	for i := range want {
		scale := math.Max(1, math.Abs(want[i]))
		if d := math.Abs(cold.Potentials[i]-want[i]) / scale; d > 1e-12 {
			t.Fatalf("cold potential %d off by %.2e", i, d)
		}
		if d := math.Abs(warm.Potentials[i]-want[i]) / scale; d > 1e-12 {
			t.Fatalf("warm potential %d off by %.2e", i, d)
		}
	}

	m := s.metrics.snapshot(s.cache.len(), nil)
	if m.CacheMisses != 1 || m.CacheHits != 1 {
		t.Errorf("cache counters: %d misses, %d hits, want 1 and 1", m.CacheMisses, m.CacheHits)
	}
	if m.CachedPlans != 1 {
		t.Errorf("cached_plans=%d, want 1", m.CachedPlans)
	}
	if m.RuntimeReuses != 1 {
		t.Errorf("runtime_reuses=%d, want 1", m.RuntimeReuses)
	}
	if m.ShiftTableSlots == 0 || m.ShiftTableBytes == 0 {
		t.Errorf("shift table after a Laplace evaluation: %d slots, %d bytes; want > 0, > 0",
			m.ShiftTableSlots, m.ShiftTableBytes)
	}
	loops := map[string]bool{"avx512": true, "avx2": true, "go": true, "avx512-f32": true, "avx2-f32": true}
	if !loops[m.PairKernel] || !loops[m.PairKernelF64] || strings.HasSuffix(m.PairKernelF64, "-f32") {
		t.Errorf("pair_kernel=%q, pair_kernel_f64=%q, want the names of a pair loop and a float64 one", m.PairKernel, m.PairKernelF64)
	}
	if !loops[m.PairKernelYukawa] || !loops[m.PairKernelYukawaF64] || strings.HasSuffix(m.PairKernelYukawaF64, "-f32") {
		t.Errorf("pair_kernel_yukawa=%q, pair_kernel_yukawa_f64=%q, want the names of a pair loop and a float64 one", m.PairKernelYukawa, m.PairKernelYukawaF64)
	}
	if m.DenseKernel != kernel.DenseKernel(kernel.NewLaplace(0)) {
		t.Errorf("dense_kernel=%q, want this process's binding %q", m.DenseKernel, kernel.DenseKernel(kernel.NewLaplace(0)))
	}
}

// Identical concurrent requests coalesce into one evaluation: with the only
// evaluation slot held externally, a queued leader accumulates duplicates,
// and all of them get the leader's potentials.
func TestServeCoalescesDuplicates(t *testing.T) {
	s := New(Config{MaxConcurrent: 1, MaxQueue: 8})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	s.sem <- struct{}{} // hold the only evaluation slot
	req := Request{N: 1200, Threshold: paperThr, Workers: 2}

	const dupes = 3
	results := make(chan *Response, 1+dupes)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		code, resp, _ := post(t, ts.URL, req)
		if code != http.StatusOK {
			t.Errorf("leader: HTTP %d", code)
			results <- nil
			return
		}
		results <- resp
	}()
	waitFor(t, "leader to queue", func() bool { return s.metrics.queued.Load() == 1 })

	for i := 0; i < dupes; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, resp, _ := post(t, ts.URL, req)
			if code != http.StatusOK {
				t.Errorf("duplicate: HTTP %d", code)
				results <- nil
				return
			}
			results <- resp
		}()
	}
	waitFor(t, "duplicates to coalesce", func() bool { return s.Metrics().Coalesced == dupes })
	<-s.sem // release the slot; the leader evaluates

	wg.Wait()
	close(results)
	var coalesced int
	var first []float64
	for resp := range results {
		if resp == nil {
			continue
		}
		if resp.Report.Coalesced {
			coalesced++
		}
		if first == nil {
			first = resp.Potentials
			continue
		}
		for i := range first {
			if resp.Potentials[i] != first[i] {
				t.Fatalf("coalesced responses disagree at potential %d", i)
			}
		}
	}
	if coalesced != dupes {
		t.Errorf("%d responses marked coalesced, want %d", coalesced, dupes)
	}
	if got := s.metrics.Evaluate.count.Load(); got != 1 {
		t.Errorf("%d evaluations ran for %d identical requests, want 1", got, 1+dupes)
	}
}

// A full queue sheds with 429; a request whose deadline expires while
// queued gets 503. Neither leaves the server wedged.
func TestServeShedsUnderLoad(t *testing.T) {
	s := New(Config{MaxConcurrent: 1, MaxQueue: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	s.sem <- struct{}{} // hold the only evaluation slot

	// Occupy the single queue slot with a leader.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		code, _, _ := post(t, ts.URL, Request{N: 800, Threshold: paperThr, ChargeSeed: 10})
		if code != http.StatusOK {
			t.Errorf("queued request: HTTP %d", code)
		}
	}()
	waitFor(t, "queue to fill", func() bool { return s.metrics.queued.Load() == 1 })

	// A distinct request now overflows the queue.
	code, _, eb := post(t, ts.URL, Request{N: 800, Threshold: paperThr, ChargeSeed: 11})
	if code != http.StatusTooManyRequests {
		t.Fatalf("overflow request: HTTP %d, want 429", code)
	}
	if !strings.Contains(eb.Error, "queue full") {
		t.Errorf("shed error = %q", eb.Error)
	}
	if s.Metrics().Shed != 1 {
		t.Errorf("shed counter = %d, want 1", s.Metrics().Shed)
	}

	// A duplicate of the queued leader still coalesces (no queue slot
	// needed) but then times out on its own deadline.
	code, _, eb = post(t, ts.URL, Request{N: 800, Threshold: paperThr, ChargeSeed: 10, DeadlineMS: 50})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("deadline duplicate: HTTP %d, want 503", code)
	}
	if !strings.Contains(eb.Error, "deadline") {
		t.Errorf("deadline error = %q", eb.Error)
	}

	<-s.sem // release; the queued leader completes
	wg.Wait()

	// The server still serves after shedding.
	if code, _, _ := post(t, ts.URL, Request{N: 800, Threshold: paperThr, ChargeSeed: 12}); code != http.StatusOK {
		t.Fatalf("post-shed request: HTTP %d", code)
	}
	requireConserved(t, s)
}

// A request with deadline_ms expiring while queued is refused with 503 and
// unregistered, so a later identical request succeeds. A duplicate coalesced
// on it mirrors that 503 well inside its own, longer deadline — Retry-After
// included, as on the leader's — and both are counted as what they were: two
// deadline refusals, no failure.
func TestServeDeadlineWhileQueued(t *testing.T) {
	s := New(Config{MaxConcurrent: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	s.sem <- struct{}{}
	type reply struct {
		code int
		eb   *errorBody
		hdr  http.Header
	}
	leader := make(chan reply, 1)
	go func() {
		code, _, eb, hdr := postHeader(t, ts.URL, Request{N: 800, Threshold: paperThr, DeadlineMS: 1000})
		leader <- reply{code, eb, hdr}
	}()
	waitFor(t, "leader to queue", func() bool { return s.metrics.queued.Load() == 1 })
	dupCode, _, dupErr, dupHdr := postHeader(t, ts.URL, Request{N: 800, Threshold: paperThr, DeadlineMS: 10_000})
	if s.Metrics().Coalesced != 1 {
		t.Fatal("the duplicate did not coalesce on the queued leader")
	}
	for who, r := range map[string]reply{"leader": <-leader, "duplicate": {dupCode, dupErr, dupHdr}} {
		if r.code != http.StatusServiceUnavailable {
			t.Fatalf("%s: HTTP %d, want 503", who, r.code)
		}
		if !strings.Contains(r.eb.Error, "deadline expired while queued") {
			t.Errorf("%s: error = %q", who, r.eb.Error)
		}
		if got := r.hdr.Get("Retry-After"); got != "1" {
			t.Errorf("%s: Retry-After = %q, want \"1\" on every 503", who, got)
		}
	}
	if m := s.metrics.snapshot(s.cache.len(), nil); m.Deadline != 2 || m.Failed != 0 {
		t.Errorf("deadline=%d failed=%d after two 503s, want 2 and 0", m.Deadline, m.Failed)
	}
	<-s.sem
	if code, _, _ := post(t, ts.URL, Request{N: 800, Threshold: paperThr}); code != http.StatusOK {
		t.Fatalf("follow-up request: HTTP %d (stale in-flight registration?)", code)
	}
}

// Malformed requests get 400 with a diagnostic, not 500.
func TestServeRejectsBadRequests(t *testing.T) {
	s := New(Config{MaxPoints: 5000})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name string
		req  Request
		want string
	}{
		{"zero points", Request{}, "n must be positive"},
		{"too many points", Request{N: 6000}, "server limit"},
		{"too many inline targets", Request{Sources: [][3]float64{{0, 0, 0}}, Targets: make([][3]float64, 6000)}, "server limit"},
		{"bad distribution", Request{N: 100, Distribution: "torus"}, "unknown distribution"},
		{"bad kernel", Request{N: 100, Kernel: "helmholtz"}, "unknown kernel"},
		{"bad digits", Request{N: 100, Digits: 13}, "out of range"},
		{"tree too deep for its digits' plane-wave tables", Request{N: 2000, Digits: 12, Threshold: 8}, "plane-wave tables"},
		{"charge mismatch", Request{N: 100, Charges: []float64{1, 2}}, "charges for"},
		{"too many workers", Request{N: 100, Workers: 257}, "too large"},
		{"localities", Request{N: 100, Localities: 2}, "workers"},
		{"deadline past a time.Duration", Request{N: 500, DeadlineMS: 10_000_000_000_000}, "largest accepted value is 9223372036854"},
	}
	for _, c := range cases {
		code, _, eb := post(t, ts.URL, c.req)
		if code != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400", c.name, code)
			continue
		}
		if !strings.Contains(eb.Error, c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, eb.Error, c.want)
		}
	}
	if got := s.Metrics().BadRequest; got != int64(len(cases)) {
		t.Errorf("bad_request counter = %d, want %d", got, len(cases))
	}
}

// A cached plan holds one evaluation context, sized from the cores, whatever
// workers its requests ask for: a client cycling them on one key neither
// grows the entry nor changes the answer. One context of an N=16k plan is
// 2.3 MB at one worker and 31 MB at 256, so a context per requested
// value would show in the live heap.
func TestServeHoldsOneContextPerPlan(t *testing.T) {
	const n = 16000
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	var first []float64
	var base uint64
	for _, workers := range []int{1, 2, 64, 256} {
		code, resp, eb := post(t, ts.URL, Request{N: n, Workers: workers})
		if code != http.StatusOK {
			t.Fatalf("%d workers: HTTP %d %+v", workers, code, eb)
		}
		if resp.Report.Workers != s.workers {
			t.Errorf("%d workers asked for: the report says %d threads ran, want the daemon's %d", workers, resp.Report.Workers, s.workers)
		}
		if first != nil {
			var den, worst float64
			for j, w := range first {
				den = math.Max(den, math.Abs(w))
				worst = math.Max(worst, math.Abs(resp.Potentials[j]-w))
			}
			if worst/den > 1e-12 {
				t.Errorf("%d workers differ from the first answer by %.3e relative", workers, worst/den)
			}
			continue
		}
		first = resp.Potentials
		base = heap()
	}
	grown := int64(heap()) - int64(base)

	if s.cache.len() != 1 {
		t.Fatalf("%d plans cached, want the one shared key", s.cache.len())
	}
	var e *planEntry
	for _, e = range s.cache.entries {
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.eval == nil {
		t.Fatal("the entry holds no evaluation context")
	}
	// What one more context of the plan holds, run once.
	before := heap()
	pe, err := e.plan.NewParallelEvaluation(core.ExecOptions{Workers: s.workers})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := pe.Run(points.Charges(n, 3)); err != nil {
		t.Fatal(err)
	}
	one := int64(heap()) - int64(before)
	runtime.KeepAlive(pe)
	t.Logf("one context %.2f MB; live heap grew %.2f MB over three more requests", float64(one)/1e6, float64(grown)/1e6)
	if float64(grown) >= 1.5*float64(one) {
		t.Errorf("three requests at other worker counts grew the live heap by %d bytes, one context holds %d", grown, one)
	}
}

// A traced request returns the evaluation's event log in trace.WriteJSON
// format, and the capture does not leak into untraced requests.
func TestServePerRequestTrace(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, resp, _ := post(t, ts.URL, Request{N: 1200, Threshold: paperThr, Workers: 2, Trace: true})
	if code != http.StatusOK {
		t.Fatalf("traced request: HTTP %d", code)
	}
	if resp.TraceJSONL == "" {
		t.Fatal("traced request returned no trace")
	}
	events, err := trace.ReadJSON(strings.NewReader(resp.TraceJSONL))
	if err != nil {
		t.Fatalf("returned trace does not parse: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("returned trace is empty")
	}
	if int64(len(events)) < resp.Report.TasksRun/2 {
		t.Errorf("trace has %d events for %d tasks", len(events), resp.Report.TasksRun)
	}

	code, resp, _ = post(t, ts.URL, Request{N: 1200, Threshold: paperThr, Workers: 2})
	if code != http.StatusOK {
		t.Fatalf("untraced request: HTTP %d", code)
	}
	if resp.TraceJSONL != "" {
		t.Error("untraced request returned a trace")
	}
}

// /healthz and /metrics respond with well-formed JSON.
func TestServeObservabilityEndpoints(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	if err := json.NewDecoder(hr.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if health["status"] != "ok" {
		t.Errorf("healthz status = %v", health["status"])
	}

	if code, _, _ := post(t, ts.URL, Request{N: 600, Threshold: paperThr}); code != http.StatusOK {
		t.Fatalf("request: HTTP %d", code)
	}
	hr, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var m MetricsSnapshot
	if err := json.NewDecoder(hr.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if m.Requests != 1 || m.OK != 1 || m.CacheMisses != 1 {
		t.Errorf("metrics after one request: %+v", m)
	}
	if m.Total.Count != 1 || m.Evaluate.Count != 1 || m.Total.P50US <= 0 {
		t.Errorf("latency histograms not populated: total=%+v evaluate=%+v", m.Total, m.Evaluate)
	}
}

// The ci smoke test: concurrent mixed requests (different problems, worker
// counts, charge vectors, some duplicates, one trace) all succeed, the metrics add
// up, and the server leaks no goroutines.
func TestServeSmoke(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New(Config{MaxConcurrent: 2, MaxQueue: 64})
	ts := httptest.NewServer(s.Handler())

	reqs := []Request{
		{N: 900},
		{N: 900},                          // duplicate of the first (coalesces or hits)
		{N: 900, Workers: 2},              // same plan and context: workers selects nothing
		{N: 900, ChargeSeed: 7},           // same plan, new charges
		{N: 1100, Distribution: "sphere"}, // second plan
		{N: 1100, Distribution: "sphere", Trace: true},
		{N: 700, Kernel: "yukawa", Digits: 2}, // third plan
		{N: 900, Localities: 1, Workers: 3},   // the same again, locality given
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(reqs))
	for i, r := range reqs {
		r.Threshold = paperThr
		wg.Add(1)
		go func(i int, r Request) {
			defer wg.Done()
			code, resp, eb := post(t, ts.URL, r)
			if code != http.StatusOK {
				errs <- fmt.Errorf("request %d: HTTP %d (%v)", i, code, eb)
				return
			}
			if len(resp.Potentials) != r.N && len(resp.Potentials) != 0 {
				if r.N == 0 {
					return
				}
				errs <- fmt.Errorf("request %d: %d potentials for n=%d", i, len(resp.Potentials), r.N)
			}
		}(i, r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// A handler decrements its in-flight gauge after the reply is written,
	// so the last client can be back before the last handler has returned.
	waitFor(t, "handlers to return", func() bool { return s.metrics.inflight.Load() == 0 })
	m := s.metrics.snapshot(s.cache.len(), nil)
	if m.Requests != int64(len(reqs)) {
		t.Errorf("requests=%d, want %d", m.Requests, len(reqs))
	}
	if m.OK != int64(len(reqs)) {
		t.Errorf("ok=%d, want %d", m.OK, len(reqs))
	}
	if m.Shed != 0 || m.Failed != 0 || m.Deadline != 0 {
		t.Errorf("unexpected failures: shed=%d failed=%d deadline=%d", m.Shed, m.Failed, m.Deadline)
	}
	if m.CacheMisses != 3 {
		t.Errorf("cache_misses=%d, want 3 (three distinct plans)", m.CacheMisses)
	}
	if m.CacheHits+m.Coalesced != int64(len(reqs))-3 {
		t.Errorf("hits=%d + coalesced=%d, want %d together", m.CacheHits, m.Coalesced, len(reqs)-3)
	}
	if m.QueueDepth != 0 || m.Inflight != 0 {
		t.Errorf("gauges not drained: queue=%d inflight=%d", m.QueueDepth, m.Inflight)
	}
	if m.Traces != 1 {
		t.Errorf("traces=%d, want 1", m.Traces)
	}
	if m.Total.Count != m.OK-m.Coalesced {
		t.Errorf("total histogram count=%d, want %d", m.Total.Count, m.OK-m.Coalesced)
	}
	requireConserved(t, s)

	ts.Close()
	// Goroutine-leak soft check: pooled runtimes park their workers inside
	// Run, so after the server quiesces the count must return to baseline.
	waitFor(t, "goroutines to drain", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= before+2
	})
}

// A report names the pair loop its own plan's kernel bound, which follows
// the requested digits for both kernels: the /metrics loop of up to five
// digits at the default three — a float32 one ("…-f32") wherever the CPU
// runs the Yukawa vector loops — and the float64 one at nine.
func TestReportNamesItsPairLoop(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, c := range []struct {
		kernel string
		digits int
		want   string
	}{
		{"", 0, pairKernel}, {"", 9, pairKernelF64}, {"", 3, pairKernel},
		{"yukawa", 3, yukawaPairKernel}, {"yukawa", 9, yukawaPairKernelF64},
	} {
		code, resp, eb := post(t, ts.URL, Request{N: 300, Kernel: c.kernel, Digits: c.digits})
		if code != http.StatusOK {
			t.Fatalf("%q, digits %d: HTTP %d: %v", c.kernel, c.digits, code, eb)
		}
		if resp.Report.PairKernel != c.want {
			t.Errorf("%q, digits %d: report names pair loop %q, want %q", c.kernel, c.digits, resp.Report.PairKernel, c.want)
		}
	}
	vector := yukawaPairKernelF64 != "go" // AVX-512, or AVX2 with FMA: what the float32 loops need
	for _, k := range [][2]string{{pairKernel, pairKernelF64}, {yukawaPairKernel, yukawaPairKernelF64}} {
		if low, high := k[0], k[1]; strings.HasSuffix(high, "-f32") || vector && !strings.HasSuffix(low, "-f32") {
			t.Errorf("pair loops %q at three digits and %q at nine: want a float32 one and a float64 one", low, high)
		}
	}
}
