package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/amt"
	"repro/internal/core"
)

// TestMain diverts worker re-execs: the pool forks its own executable, here
// this test binary, so a forked rank must run the worker loop instead of the
// test suite. It also fails the run when a pool's socket directory outlives
// the tests that made it.
func TestMain(m *testing.M) {
	if MaybeWorker() {
		return // unreachable: MaybeWorker exits the process
	}
	before := poolSocketDirs()
	code := m.Run()
	for _, dir := range poolSocketDirs() {
		if !slices.Contains(before, dir) {
			fmt.Fprintln(os.Stderr, "FAIL: a pool left its socket directory behind:", dir)
			code = 1
		}
	}
	os.Exit(code)
}

// poolSocketDirs lists the socket directories pools made under the temp dir.
func poolSocketDirs() []string {
	dirs, _ := filepath.Glob(filepath.Join(os.TempDir(), "dashmm-serve-pool*"))
	return dirs
}

// fastPool is a small real pool (forked worker processes) tuned for tests.
func fastPool(t *testing.T, workers int, mut func(*PoolConfig)) *Pool {
	t.Helper()
	cfg := PoolConfig{
		Workers:     workers,
		RankThreads: 1,
		Heartbeat:   amt.FailureDetectorConfig{Interval: 25 * time.Millisecond, MissedBeats: 20},
		JoinTimeout: 30 * time.Second,
		BackoffBase: 5 * time.Millisecond,
		BackoffMax:  50 * time.Millisecond,
	}
	if mut != nil {
		mut(&cfg)
	}
	p, err := NewPool(cfg)
	if err != nil {
		t.Fatalf("pool: %v", err)
	}
	t.Cleanup(p.Close)
	return p
}

// A worker whose coordinator dies mid-run returns promptly instead of
// wedging: the lost control connection fails the in-flight DistRun.
// RunWorker runs in-process here so the test can watch its return value.
func TestWorkerExitsOnCoordinatorLossMidRun(t *testing.T) {
	dir := t.TempDir()
	addr := filepath.Join(dir, "coord.sock")
	stamp := "worker-test-v1"
	hb := amt.FailureDetectorConfig{Interval: 25 * time.Millisecond, MissedBeats: 20}
	coord, err := amt.NewCluster(amt.ClusterConfig{
		Rank: 0, World: 2, Network: "unix", Addr: addr, Stamp: stamp, Heartbeat: hb,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	workerDone := make(chan error, 1)
	go func() {
		workerDone <- RunWorker(WorkerEnv{
			Rank: 1, World: 2, Network: "unix", Addr: addr, Stamp: stamp,
			Threads: 1, Heartbeat: hb, JoinTimeout: 30 * time.Second,
		})
	}()
	if err := coord.Start(); err != nil {
		t.Fatal(err)
	}

	// Broadcast a job but never run rank 0's side of it: the worker enters
	// DistRun, fires what its charges allow and then waits for rank 0...
	payload, err := json.Marshal(planSpec{Request: Request{Distribution: "cube", N: 400, Seed: 1,
		Kernel: "laplace", Digits: 3, DeadlineMS: 60_000}})
	if err != nil {
		t.Fatal(err)
	}
	coord.StartJob(context.Background(), payload)

	// ...give it a moment to get there, then the coordinator dies.
	time.Sleep(300 * time.Millisecond)
	coord.Close()

	select {
	case err := <-workerDone:
		if err == nil {
			t.Fatal("worker returned nil after losing the coordinator mid-run; want an error (crash-only exit)")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("worker wedged after coordinator death")
	}
}

// An idle worker whose coordinator disappears also exits (cleanly: its
// main loop reads the loss off the event log and returns — no orphan loop).
func TestWorkerExitsOnCoordinatorLossIdle(t *testing.T) {
	dir := t.TempDir()
	addr := filepath.Join(dir, "coord.sock")
	stamp := "worker-test-v2"
	coord, err := amt.NewCluster(amt.ClusterConfig{
		Rank: 0, World: 2, Network: "unix", Addr: addr, Stamp: stamp,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	workerDone := make(chan error, 1)
	go func() {
		workerDone <- RunWorker(WorkerEnv{
			Rank: 1, World: 2, Network: "unix", Addr: addr, Stamp: stamp,
			Threads: 1, JoinTimeout: 30 * time.Second,
		})
	}()
	if err := coord.Start(); err != nil {
		t.Fatal(err)
	}
	coord.Close()
	select {
	case <-workerDone:
	case <-time.After(30 * time.Second):
		t.Fatal("idle worker wedged after coordinator death")
	}
}

// A crash-looping worker (respawns exit immediately) burns through the
// restart budget and is abandoned: rank pinned "dead", and with no live
// worker left Evaluate degrades from then on.
func TestSupervisorRestartBudgetAbandonsCrashLoop(t *testing.T) {
	p := fastPool(t, 1, func(cfg *PoolConfig) {
		cfg.RestartBudget = 3
	})

	// Respawns now hit a stub that dies instantly, long before joining.
	p.SetWorkerCommand([]string{"/bin/sh", "-c", "exit 1"})
	p.ranks[1].kill() // the real worker dies; the crash loop begins

	deadline := time.Now().Add(60 * time.Second)
	for {
		s := p.Snapshot()
		if s.Ranks[0].State == "dead" && s.LiveWorkers == 0 {
			if s.Ranks[0].Strikes <= p.cfg.RestartBudget {
				t.Fatalf("abandoned with %d strikes, want > budget %d",
					s.Ranks[0].Strikes, p.cfg.RestartBudget)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rank never abandoned: %+v", s.Ranks[0])
		}
		time.Sleep(10 * time.Millisecond)
	}

	req := &Request{N: 5000, Threshold: paperThr}
	if err := req.normalize(Config{}.withDefaults()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, _, err := p.Evaluate(ctx, req, nil, nil)
	if !errors.Is(err, ErrDegraded) {
		t.Fatalf("Evaluate after abandon: %v, want ErrDegraded", err)
	}
}

// Pool.Close joins every goroutine the pool started — the supervisor, the
// respawn loops, the reapers of its worker processes — so none of them
// touches the pool once Close has returned. The test holds the worker
// command, so the respawn loop of a killed rank waits on its way to the
// fork, and closes the pool under it.
func TestPoolCloseJoinsItsGoroutines(t *testing.T) {
	p := fastPool(t, 1, nil)
	p.SetWorkerCommand([]string{"/bin/sh", "-c", "exit 1"})
	p.cmdMu.Lock()
	held := true
	release := func() {
		if held {
			held = false
			p.cmdMu.Unlock()
		}
	}
	defer release()
	p.ranks[1].kill()
	for deadline := time.Now().Add(30 * time.Second); poolGoroutine("serve.(*Pool).workerCommand(") == ""; {
		if time.Now().After(deadline) {
			t.Fatal("no respawn loop reached the worker command within 30 s of the kill")
		}
		time.Sleep(10 * time.Millisecond)
	}
	closed := make(chan struct{})
	go func() {
		p.Close()
		close(closed)
	}()
	select {
	case <-closed: // Close left the respawn loop behind, still waiting
	case <-time.After(time.Second):
		release()
		<-closed
	}
	// The goroutine whose WaitGroup.Done let Close return may still be
	// returning; one still there 100 ms later outlived Close.
	g := poolGoroutine("serve.(*Pool)", "serve.(*rankState)")
	for deadline := time.Now().Add(100 * time.Millisecond); g != "" && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		g = poolGoroutine("serve.(*Pool)", "serve.(*rankState)")
	}
	if g != "" {
		t.Errorf("a goroutine of the pool outlived Close:\n%s", g)
	}
}

// poolGoroutine returns the stack of a goroutine with a frame in any of the
// given functions (or created by one), or "" when there is none.
func poolGoroutine(fns ...string) string {
	buf := make([]byte, 1<<16)
	n := runtime.Stack(buf, true)
	for n == len(buf) {
		buf = make([]byte, 2*len(buf))
		n = runtime.Stack(buf, true)
	}
	for _, g := range strings.Split(string(buf[:n]), "\n\n") {
		for _, fn := range fns {
			if strings.Contains(g, fn) {
				return g
			}
		}
	}
	return ""
}

// A request whose context ends before its job starts is no fabric failure:
// neither one whose deadline had passed on arrival nor one that queued behind
// another job past it. Three of the first kind used to open the breaker and
// send healthy distributed traffic in-process for the cooldown.
func TestExpiredRequestsLeaveTheBreakerClosed(t *testing.T) {
	p := fastPool(t, 1, nil)
	req := &Request{N: 5000, Threshold: paperThr}
	if err := req.normalize(Config{}.withDefaults()); err != nil {
		t.Fatal(err)
	}
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	for i := 0; i < breakerThreshold; i++ {
		if _, _, err := p.Evaluate(expired, req, nil, nil); err == nil || errors.Is(err, ErrDegraded) {
			t.Fatalf("expired request %d: %v, want a not-started error, not ErrDegraded", i, err)
		}
	}
	// The second kind: the cluster is busy with a job that outlives the
	// request's deadline (its empty payload is no plan spec: the worker exits
	// on it and is respawned).
	held, err := p.cl.StartJob(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	queued, cancel2 := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel2()
	entry := &planEntry{plan: &core.Plan{}}
	if _, _, err := p.Evaluate(queued, req, entry, nil); !errors.Is(err, context.DeadlineExceeded) || errors.Is(err, ErrDegraded) {
		t.Fatalf("request queued past its deadline: %v, want context.DeadlineExceeded, not ErrDegraded", err)
	}
	held.End()
	if s := p.Snapshot(); s.Breaker != "closed" || s.Failed != 0 {
		t.Errorf("breaker %s, failed %d after four requests that never started; want closed and 0", s.Breaker, s.Failed)
	}
}

// Back-to-back distributed evaluations on a standing pool: the client sends
// its next request the moment it has decoded the last reply, so rank 0's
// first parcels of job g+1 reach the worker while that is still leaving job
// g (or, on a never-seen key, building its plan). The frames wait at the
// worker's generation fence for the run they belong to; they used to be
// dropped there as "not this rank's generation" and came back one
// retransmission interval (200 ms) later, about once per three evaluations.
// The log line is the latency distribution ROADMAP item 6 quotes.
func TestBackToBackJobsNeedNoRetransmission(t *testing.T) {
	if testing.Short() {
		t.Skip("forks worker processes")
	}
	const n, requests = 4000, 200
	pool := fastPool(t, 1, nil)
	srv := New(Config{DistThreshold: 1000})
	srv.AttachPool(pool)
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	req := Request{N: n, DeadlineMS: 60_000}
	if status, resp, eb := post(t, hs.URL, req); status != http.StatusOK || !resp.Report.Distributed {
		t.Fatalf("cold request: status=%d report=%+v err=%+v", status, resp, eb)
	}
	before := srv.Metrics().WireRetried
	lat := make([]time.Duration, requests)
	var sum time.Duration
	for i := range lat {
		start := time.Now()
		status, resp, eb := post(t, hs.URL, req)
		lat[i] = time.Since(start)
		sum += lat[i]
		if status != http.StatusOK || !resp.Report.Distributed {
			t.Fatalf("request %d: status=%d report=%+v err=%+v", i, status, resp, eb)
		}
	}
	retried := srv.Metrics().WireRetried - before
	slices.Sort(lat)
	t.Logf("%d back-to-back evaluations, N=%d, 2 ranks: p50 %v, p90 %v, max %v, mean %v; %d retransmissions (%.3f per evaluation)",
		requests, n, lat[requests/2], lat[requests*9/10], lat[requests-1], sum/requests, retried, float64(retried)/requests)
	if retried > 2 {
		t.Errorf("%d frames were retransmitted over %d fault-free evaluations, want none (2 tolerated)", retried, requests)
	}
}

// One description of a plan: for a served distributed request, the job
// payload rank 0 broadcast is the spec its store record holds, plus the
// request's charge seed and rank 0's time budget. The budget is the largest
// accepted, so the worker's backstop (15 s past it) must not wrap negative:
// a worker that fails its run at once exits, and the second request finds it
// dead.
func TestJobPayloadIsTheRecordSpec(t *testing.T) {
	if testing.Short() {
		t.Skip("forks worker processes")
	}
	pool := fastPool(t, 1, nil)
	events := pool.cl.Subscribe()
	defer events.Close()
	srv := New(Config{DistThreshold: 1000})
	srv.AttachPool(pool)
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv.UseStore(st)
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	const deadlineMS = int(maxDeadlineMS)
	for i := 0; i < 2; i++ {
		status, resp, eb := post(t, hs.URL, Request{N: 4000, DeadlineMS: deadlineMS})
		if status != http.StatusOK {
			t.Fatalf("request %d: HTTP %d %+v", i, status, eb)
		}
		if !resp.Report.Distributed || resp.Report.Degraded {
			t.Fatalf("request %d: report %+v; want distributed, not degraded", i, resp.Report)
		}
	}
	if s := pool.Snapshot(); s.Retries != 0 || s.Failed != 0 {
		t.Errorf("pool %+v; want no retry and no failure", s)
	}
	var job planSpec
	for ev, ok := events.Next(); ; ev, ok = events.Next() {
		if !ok {
			t.Fatal("event log ended without a job")
		}
		if ev.Kind == amt.EventJob {
			if err := json.Unmarshal(ev.Job.Payload, &job); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	recs := loadAll(t, st)
	if len(recs) != 1 {
		t.Fatalf("store: %d records", len(recs))
	}
	if job.ChargeSeed != 3 || job.DeadlineMS <= 0 || job.DeadlineMS > deadlineMS {
		t.Errorf("job charge seed %d, deadline %d ms; want the default seed 3 and a budget within %d ms", job.ChargeSeed, job.DeadlineMS, deadlineMS)
	}
	job.ChargeSeed, job.DeadlineMS = 0, 0
	if rec := (planSpec{Request: recs[0].Spec, ResolvedThreshold: recs[0].Threshold}); !reflect.DeepEqual(job, rec) {
		t.Errorf("job spec %+v\nrecord spec %+v", job, rec)
	}
}

// A job carrying inline points or charges is refused: every rank generates
// its own from the spec's seeds, so such a job could only be wrong.
func TestResolveRefusesInlineJob(t *testing.T) {
	base := Request{Distribution: "cube", N: 2, Seed: 1, Kernel: "laplace", Digits: 3}
	for name, mut := range map[string]func(*Request){
		"sources": func(r *Request) { r.Sources = [][3]float64{{0, 0, 0}, {1, 1, 1}} },
		"targets": func(r *Request) { r.Targets = [][3]float64{{0, 0, 0}, {1, 1, 1}} },
		"charges": func(r *Request) { r.Charges = []float64{1, -1} },
	} {
		req := base
		mut(&req)
		payload, err := json.Marshal(planSpec{Request: req, ResolvedThreshold: 60})
		if err != nil {
			t.Fatal(err)
		}
		var spec planSpec
		if err := json.Unmarshal(payload, &spec); err != nil {
			t.Fatal(err)
		}
		if _, _, err := spec.resolve(); err == nil || !strings.Contains(err.Error(), "inline") {
			t.Errorf("job with inline %s: resolve error %v, want a refusal naming inline values", name, err)
		}
	}
	if _, thr, err := (planSpec{Request: base, ResolvedThreshold: 60}).resolve(); err != nil || thr != 60 {
		t.Errorf("the same job without inline values: threshold %d, %v; want 60, nil", thr, err)
	}
}
