package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dag/dagtest"
	"repro/internal/kernel"
	"repro/internal/points"
)

// TestServeChaos is the self-healing gate (`make serve-chaos`): a daemon
// with a real forked worker pool serves concurrent distributed requests
// while one worker is SIGKILLed mid-load. Every request must either return
// potentials matching the sequential reference at 1e-12 (distributed, or
// degraded in-process) or fail closed as a degraded 503 — never hang,
// never return silently-wrong values. Afterwards the supervisor must have
// respawned and re-admitted the worker (generation bump visible in
// /metrics) and distributed service must resume.
func TestServeChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("forks worker processes")
	}
	const n = 2500
	const chargeSeeds = 4

	// Sequential references, one per charge vector in play, built exactly
	// as planEntry.ensureBuilt builds the served plan (digits-derived order,
	// default method, the requests' threshold).
	sp := points.Generate(points.Cube, n, 1)
	tp := points.Generate(points.Cube, n, 2)
	k := kernel.NewLaplace(kernel.OrderForDigits(3))
	refPlan, err := core.NewPlan(sp, tp, k, core.Options{Threshold: paperThr})
	if err != nil {
		t.Fatal(err)
	}
	dagtest.RequireFarField(t, refPlan.Graph)
	want := make(map[int64][]float64, chargeSeeds)
	for seed := int64(3); seed < 3+chargeSeeds; seed++ {
		w, err := refPlan.EvaluateSequential(points.Charges(n, seed))
		if err != nil {
			t.Fatal(err)
		}
		want[seed] = w
	}

	pool := fastPool(t, 2, func(cfg *PoolConfig) {
		cfg.BreakerCooldown = 500 * time.Millisecond
	})
	srv := New(Config{DistThreshold: 1000, MaxQueue: 64, MaxConcurrent: 2})
	srv.AttachPool(pool)
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	check := func(t *testing.T, seed int64, status int, resp *Response, eb *errorBody) (distributed bool) {
		t.Helper()
		switch status {
		case http.StatusOK:
			if len(resp.Potentials) != n {
				t.Fatalf("%d potentials, want %d", len(resp.Potentials), n)
			}
			for i, w := range want[seed] {
				if math.Abs(resp.Potentials[i]-w) > 1e-12 {
					t.Fatalf("seed %d potential %d differs: %v vs %v (distributed=%v degraded=%v)",
						seed, i, resp.Potentials[i], w, resp.Report.Distributed, resp.Report.Degraded)
				}
			}
			return resp.Report.Distributed
		case http.StatusServiceUnavailable:
			// Acceptable only as an honest degraded refusal.
			if eb == nil || !eb.Degraded {
				t.Fatalf("503 without the degraded marker: %+v", eb)
			}
			return false
		default:
			t.Fatalf("status %d: %+v", status, eb)
			return false
		}
	}

	// Warm-up: the first request must go over the fabric and hit the gate.
	status, resp, eb := post(t, hs.URL, Request{N: n, Threshold: paperThr, ChargeSeed: 3, DeadlineMS: 60_000})
	if status != http.StatusOK || !resp.Report.Distributed {
		t.Fatalf("warm-up: status=%d report=%+v err=%+v", status, resp, eb)
	}
	check(t, 3, status, resp, eb)

	// Concurrent load; one worker is SIGKILLed while it flows.
	type result struct {
		seed   int64
		status int
		resp   *Response
		eb     *errorBody
	}
	var wg sync.WaitGroup
	results := make(chan result, 3*chargeSeeds)
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < chargeSeeds; i++ {
				seed := int64(3 + (g+i)%chargeSeeds)
				st, r, e := post(t, hs.URL, Request{N: n, Threshold: paperThr, ChargeSeed: seed, DeadlineMS: 60_000})
				results <- result{seed, st, r, e}
			}
		}(g)
	}
	time.Sleep(150 * time.Millisecond)
	pool.ranks[1].kill() // SIGKILL mid-load
	wg.Wait()
	close(results)
	sawDistributed := false
	for r := range results {
		if check(t, r.seed, r.status, r.resp, r.eb) {
			sawDistributed = true
		}
	}
	if !sawDistributed {
		t.Error("no request completed distributed during the chaos window")
	}

	// Self-healing: the supervisor respawns the corpse, the cluster
	// re-admits it with a bumped generation, and /metrics shows it.
	deadline := time.Now().Add(60 * time.Second)
	for {
		s := pool.Snapshot()
		healed := s.Generation >= 1
		for _, rh := range s.Ranks {
			if rh.State != "up" {
				healed = false
			}
		}
		if healed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool never healed: %+v", s)
		}
		time.Sleep(20 * time.Millisecond)
	}
	mr, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var ms MetricsSnapshot
	if err := json.NewDecoder(mr.Body).Decode(&ms); err != nil {
		t.Fatal(err)
	}
	mr.Body.Close()
	if ms.Dist == nil || ms.Dist.Generation < 1 {
		t.Fatalf("/metrics dist = %+v, want generation >= 1", ms.Dist)
	}

	// Distributed service resumes on the healed pool (the breaker may need
	// its cooldown plus one probe; keep asking until a request goes over
	// the fabric again).
	deadline = time.Now().Add(60 * time.Second)
	for {
		status, resp, eb = post(t, hs.URL, Request{N: n, Threshold: paperThr, ChargeSeed: 4, DeadlineMS: 60_000})
		if check(t, 4, status, resp, eb) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("distributed service never resumed after the heal")
		}
		time.Sleep(200 * time.Millisecond)
	}

	// A request whose deadline is gone before its pool job starts is one 503
	// and one deadline count, not marked degraded: the fabric was never
	// tried. The cached plan's lock is held past the deadline, so the job the
	// handler then starts has no time left.
	var entry *planEntry
	srv.cache.mu.Lock()
	for _, e := range srv.cache.entries {
		entry = e // every request above asked for the one plan
	}
	srv.cache.mu.Unlock()
	// The last request's handler may still be on its way out after its
	// reply: until it is, "inflight == 1" below would not mean the late
	// request, and the sleep could end before the late deadline does.
	waitFor(t, "the earlier handlers to return", func() bool { return srv.metrics.inflight.Load() == 0 })
	before := srv.metrics.snapshot(srv.cache.len(), nil)
	const lateMS = 500
	late := make(chan result, 1)
	entry.mu.Lock()
	go func() {
		st, r, e := post(t, hs.URL, Request{N: n, Threshold: paperThr, ChargeSeed: 4, DeadlineMS: lateMS})
		late <- result{4, st, r, e}
	}()
	waitFor(t, "the request to reach the plan's lock", func() bool { return srv.metrics.inflight.Load() == 1 })
	time.Sleep(lateMS * time.Millisecond)
	entry.mu.Unlock()
	if r := <-late; r.status != http.StatusServiceUnavailable || r.eb == nil || r.eb.Degraded {
		t.Fatalf("request whose deadline passed before its pool job: status=%d err=%+v, want a 503 not marked degraded", r.status, r.eb)
	}
	after := srv.metrics.snapshot(srv.cache.len(), nil) // a handler counts before it replies
	if d, f := after.Deadline-before.Deadline, after.Failed-before.Failed; d != 1 || f != 0 {
		t.Errorf("one expired distributed request moved deadline by %d and failed by %d, want 1 and 0", d, f)
	}
	requireConserved(t, srv)
}
