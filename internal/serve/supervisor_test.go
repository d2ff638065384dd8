package serve

import (
	"errors"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/amt"
)

// awaitRank polls rank 1's health until cond holds and returns it; the test
// fails once within has passed.
func awaitRank(t *testing.T, p *Pool, within time.Duration, what string, cond func(RankHealth, *PoolSnapshot) bool) RankHealth {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		s := p.Snapshot()
		if cond(s.Ranks[0], s) {
			return s.Ranks[0]
		}
		if time.Now().After(deadline) {
			t.Fatalf("rank 1 not %s within %v: %+v (live workers %d)", what, within, s.Ranks[0], s.LiveWorkers)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// requireDistributed posts req and fails the test unless it is answered
// over the pool, not degraded.
func requireDistributed(t *testing.T, url string, req Request) {
	t.Helper()
	status, resp, eb := post(t, url, req)
	if status != http.StatusOK {
		t.Fatalf("HTTP %d: %+v", status, eb)
	}
	if r := resp.Report; !r.Distributed || r.Degraded {
		t.Fatalf("report distributed=%v degraded=%v; want distributed, not degraded", r.Distributed, r.Degraded)
	}
}

// A pool removes the socket directory it made, a SIGKILLed worker's
// socket file included, and so does a pool whose bootstrap fails.
func TestPoolCloseRemovesItsSocketDir(t *testing.T) {
	p := fastPool(t, 1, nil)
	dir := filepath.Dir(p.cfg.Addr)
	p.ranks[1].kill()
	p.Close()
	if _, err := os.Stat(dir); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("socket dir %s after Close: %v, want it gone", dir, err)
	}

	before := poolSocketDirs()
	if p, err := NewPool(PoolConfig{Workers: 1, JoinTimeout: time.Nanosecond}); err == nil {
		p.Close()
		t.Fatal("a pool booted within a nanosecond's join barrier")
	}
	for _, d := range poolSocketDirs() {
		if !slices.Contains(before, d) {
			t.Errorf("failed bootstrap left its socket dir %s", d)
		}
	}
}

// One SIGKILL costs one strike and one restart. The predecessor's verdict
// comes while the new incarnation is still joining (its join waits out the
// "no verdict yet" refusals), and it must not kill that incarnation.
func TestOneKillIsOneStrikeAndOneRestart(t *testing.T) {
	p := fastPool(t, 1, nil)
	first := p.Snapshot().Ranks[0].PID
	p.ranks[1].kill()
	h := awaitRank(t, p, 30*time.Second, "re-admitted", func(h RankHealth, _ *PoolSnapshot) bool {
		return h.State == "up" && h.Restarts >= 1
	})
	// A stray kill of the joiner shows as a second strike once its exit is
	// seen: give it the time.
	time.Sleep(500 * time.Millisecond)
	if got := p.Snapshot().Ranks[0]; got.Strikes != 1 || got.Restarts != 1 || got.State != "up" || got.PID != h.PID || got.PID == first || got.LastVerdictAgeMS < 0 {
		t.Fatalf("after one kill: %+v (first pid %d); want 1 strike, 1 restart, up, a new pid and a verdict", got, first)
	}
}

// A verdict against a live, admitted worker (a false suspicion) kills it,
// and its exit brings the rank back as a new process.
func TestFalseVerdictRespawnsTheWorker(t *testing.T) {
	p := fastPool(t, 1, nil)
	first := p.Snapshot().Ranks[0].PID
	p.cl.DeclareDead(1)
	awaitRank(t, p, 30*time.Second, "re-admitted as a new process", func(h RankHealth, s *PoolSnapshot) bool {
		return h.State == "up" && h.Restarts == 1 && h.PID != first && s.LiveWorkers == 1
	})
}

// An incarnation that never joins is killed JoinTimeout + 5 s after its
// fork, and its exit is struck like any other.
func TestUnadmittedIncarnationIsKilled(t *testing.T) {
	p := fastPool(t, 1, func(cfg *PoolConfig) { cfg.JoinTimeout = 2 * time.Second })
	p.SetWorkerCommand([]string{"/bin/sh", "-c", "exec sleep 600"})
	first := p.Snapshot().Ranks[0].PID
	p.ranks[1].kill()
	stub := awaitRank(t, p, 10*time.Second, "respawned as the stub", func(h RankHealth, _ *PoolSnapshot) bool {
		return h.PID != first && h.Strikes == 1
	}).PID
	start := time.Now()
	awaitRank(t, p, 20*time.Second, "struck for the stub", func(h RankHealth, _ *PoolSnapshot) bool {
		return h.Strikes == 2 && h.PID != stub
	})
	if waited := time.Since(start); waited < 6*time.Second {
		t.Errorf("stub killed after %v, before its 7 s admission deadline", waited)
	}
}

// An abandoned rank is one more dead rank: with the other worker live,
// requests are still answered distributed, over the survivors.
func TestAbandonedRankLeavesTheSurvivorsServing(t *testing.T) {
	if testing.Short() {
		t.Skip("forks worker processes")
	}
	pool := fastPool(t, 2, func(cfg *PoolConfig) { cfg.RestartBudget = 1 })
	srv := New(Config{DistThreshold: 1000})
	srv.AttachPool(pool)
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	pool.SetWorkerCommand([]string{"/bin/sh", "-c", "exit 1"})
	pool.ranks[1].kill()
	awaitRank(t, pool, 30*time.Second, "abandoned and declared dead", func(h RankHealth, s *PoolSnapshot) bool {
		return h.State == "dead" && s.LiveWorkers == 1
	})
	requireDistributed(t, hs.URL, Request{N: 4000, DeadlineMS: 60_000})
}

// A job that loses a rank is re-run while time remains and a worker is
// live, once per loss: two losses in a row cost two re-runs, and the
// request is still answered distributed.
func TestRankLossesAreReRunWhileWorkersRemain(t *testing.T) {
	if testing.Short() {
		t.Skip("forks worker processes")
	}
	pool := fastPool(t, 3, nil)
	srv := New(Config{DistThreshold: 1000})
	srv.AttachPool(pool)
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	events := pool.cl.Subscribe()
	defer events.Close()
	go func() { // rank 1 dies at the first job, rank 2 at the second
		jobs := 0
		for ev, ok := events.Next(); ok && jobs < 2; ev, ok = events.Next() {
			if ev.Kind == amt.EventJob {
				jobs++
				pool.cl.DeclareDead(jobs)
			}
		}
	}()
	requireDistributed(t, hs.URL, Request{N: 20000, DeadlineMS: 120_000})
	if s := pool.Snapshot(); s.Retries != 2 || s.Failed != 0 {
		t.Errorf("pool retries %d, failed %d; want 2 re-runs and no failure", s.Retries, s.Failed)
	}
}
