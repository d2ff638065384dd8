package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"time"

	"repro/internal/amt"
	"repro/internal/core"
)

// Worker-rank side of the serve pool. A worker is the same binary as the
// daemon, re-executed with DASHMM_SERVE_WORKER set (the stamped self-exec
// pattern from cmd/dashmm-bench): MaybeWorker intercepts startup, joins the
// coordinator's cluster, and loops — build the broadcast job's plan from a
// local cache, run core.DistRun as its rank, repeat — until the coordinator
// broadcasts EXIT or disappears.
//
// The design is crash-only: any worker-side failure (malformed job, plan
// build error, a run failed by anything but another rank's death, which rank
// 0 answers with a re-run) makes RunWorker return an error and the process
// exit; the supervisor on rank 0 sees the exit and forks a fresh
// incarnation, which joins like the first one did. No in-place repair, no
// half-alive states.

// envWorker is the one environment variable of the worker re-exec handshake:
// it carries the encoded WorkerEnv, and its presence makes a process a worker.
const envWorker = "DASHMM_SERVE_WORKER"

// WorkerEnv is the spawn contract between the supervisor and a worker
// process.
type WorkerEnv struct {
	Rank, World int
	Network     string
	Addr        string
	Stamp       string
	Threads     int
	Heartbeat   amt.FailureDetectorConfig // durations travel as integer nanoseconds
	JoinTimeout time.Duration
}

// environ renders the env entry the supervisor appends to the worker's
// command environment.
func (e WorkerEnv) environ() string {
	b, _ := json.Marshal(e) // plain scalars all the way down: cannot fail
	return envWorker + "=" + string(b)
}

// MaybeWorker intercepts a process started as a pool worker: if the worker
// environment variable is set it decodes it, runs the worker loop and exits
// the process (status 0 on a clean EXIT, 1 on any error). Call it first thing
// in main (and in TestMain for packages whose tests spawn pools). Returns
// false in an ordinary daemon process.
func MaybeWorker() bool {
	enc, ok := os.LookupEnv(envWorker)
	if !ok {
		return false
	}
	var env WorkerEnv
	if err := json.Unmarshal([]byte(enc), &env); err != nil {
		fmt.Fprintln(os.Stderr, "dashmm-serve worker: bad environment:", err)
		os.Exit(1)
	}
	if err := RunWorker(env); err != nil {
		fmt.Fprintln(os.Stderr, "dashmm-serve worker:", err)
		os.Exit(1)
	}
	os.Exit(0)
	return true
}

// RunWorker joins the pool's cluster and serves jobs until the coordinator
// broadcasts EXIT (nil) or anything fails (error). Exported for tests; the
// daemon reaches it through MaybeWorker.
func RunWorker(env WorkerEnv) error {
	cl, err := amt.NewCluster(amt.ClusterConfig{
		Rank:        env.Rank,
		World:       env.World,
		Network:     env.Network,
		Addr:        env.Addr,
		Stamp:       env.Stamp,
		Heartbeat:   env.Heartbeat,
		JoinTimeout: env.JoinTimeout,
	})
	if err != nil {
		return err
	}
	defer cl.Close()

	if err := cl.Start(); err != nil {
		return err
	}

	// The worker's main loop is a reader of the cluster's event log: a job
	// that landed between the handshake and this line is in it. While a job
	// runs nothing is read here — the run has a cursor of its own — and the
	// next job waits in the log.
	events := cl.Subscribe()
	defer events.Close()
	// Plans cached across jobs, exactly like the daemon's cache: a pool
	// serving a warm key re-runs without rebuilding anything.
	cache := newPlanCache(8)
	for {
		ev, ok := events.Next()
		if !ok {
			return nil
		}
		switch ev.Kind {
		case amt.EventExit, amt.EventCoordLost:
			// Without a coordinator there is nothing left to wait for: exit
			// and be respawned against whatever coordinator comes next.
			return nil
		case amt.EventJob:
			// A job that lost another rank failed everywhere; rank 0 re-runs
			// it on the survivors, this rank included.
			var lost *core.RankLostError
			err := runWorkerJob(cl, cache, env.Threads, ev.Job)
			if err != nil && !(errors.As(err, &lost) && lost.Rank != env.Rank) {
				return fmt.Errorf("rank %d job (gen %d): %w", env.Rank, ev.Gen, err)
			}
		}
	}
}

// runWorkerJob executes one broadcast job, rank 0's plan spec, on a worker
// rank. Jobs run one at a time on RunWorker's goroutine: no entry lock.
func runWorkerJob(cl *amt.Cluster, cache *planCache, threads int, job *amt.Job) error {
	var spec planSpec
	if err := json.Unmarshal(job.Payload, &spec); err != nil {
		return fmt.Errorf("bad job payload: %w", err)
	}
	req, thr, err := spec.resolve()
	if err != nil {
		return fmt.Errorf("bad job scenario: %w", err)
	}
	req.Threshold = thr
	entry, _, _ := cache.get(req.planKey())
	if err := entry.ensureBuilt(&req, nil); err != nil {
		cache.drop(req.planKey(), entry)
		return fmt.Errorf("plan build: %w", err)
	}
	// The worker's own deadline backstops a vanished run; it sits a grace
	// margin above rank 0's budget so the coordinator always gives up first
	// and ends the run (Shutdown) for everyone. Without the margin, one slow
	// request would mass-expire every worker at once. Time sums do not wrap.
	backstop := time.Now().Add(time.Duration(req.DeadlineMS) * time.Millisecond).Add(15 * time.Second)
	ctx, cancel := context.WithDeadline(context.Background(), backstop)
	defer cancel()
	_, _, err = core.DistRun(ctx, entry.plan, cl, req.chargeVector(), core.ExecOptions{
		Workers: threads,
		Job:     job,
	})
	return err
}
