package serve

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/amt"
)

// TestMain diverts worker re-execs: the pool's default WorkerCommand is
// this test binary, so a forked rank must run the worker loop instead of
// the test suite.
func TestMain(m *testing.M) {
	if MaybeWorker() {
		return // unreachable: MaybeWorker exits the process
	}
	os.Exit(m.Run())
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
	// DistRun and blocks waiting for the charge broadcast...
	spec := &jobSpec{Distribution: "cube", N: 400, Seed: 1, Kernel: "laplace",
		Digits: 3, RunSeed: 7, TimeoutMS: 60_000}
	coord.StartJob(func(gen uint32, deadOrder []int) []byte {
		spec.Gen = gen
		spec.PreDead = deadOrder
		return spec.encode()
	})

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
// restart budget and is abandoned: rank pinned "dead", breaker forced
// open, Evaluate degrading from then on.
func TestSupervisorRestartBudgetAbandonsCrashLoop(t *testing.T) {
	p := fastPool(t, 1, func(cfg *PoolConfig) {
		cfg.RestartBudget = 3
		cfg.RestartWindow = time.Minute
	})

	// Respawns now hit a stub that dies instantly, long before joining.
	p.SetWorkerCommand([]string{"/bin/sh", "-c", "exit 1"})
	p.ranks[1].kill() // the real worker dies; the crash loop begins

	deadline := time.Now().Add(60 * time.Second)
	for {
		s := p.Snapshot()
		if s.Ranks[0].State == "dead" && s.Breaker == "forced-open" {
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
