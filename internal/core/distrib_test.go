package core

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/amt"
	"repro/internal/dag"
	"repro/internal/kernel"
	"repro/internal/points"
	"repro/internal/trace"
)

// distWorld is one scenario prepared for in-process multi-rank runs. The
// model is SPMD — no plan is ever shipped over the wire — so every rank owns
// an identically-built plan (placement is written into the plan's graph),
// but all of them share one kernel instance: its operator tables are built
// once per scenario, not once per rank (every plan has the same root cube,
// so each Prepare after the first is a no-op that keeps the built tables).
type distWorld struct {
	t     testing.TB
	plans []*Plan
	q     []float64
	want  []float64 // plans[0].EvaluateSequential(q)
}

func newDistWorld(t *testing.T, world, n int) *distWorld {
	t.Helper()
	if raceEnabled {
		n /= 2 // every evaluation is ~10x slower instrumented
	}
	sp := points.Generate(points.Cube, n, 1)
	tp := points.Generate(points.Cube, n, 2)
	k := kernel.NewLaplace(6)
	dw := &distWorld{t: t, q: points.Charges(n, 3)}
	for r := 0; r < world; r++ {
		plan, err := NewPlan(sp, tp, k, Options{Method: dag.Advanced, Threshold: 40})
		if err != nil {
			t.Fatal(err)
		}
		dw.plans = append(dw.plans, plan)
	}
	var err error
	if dw.want, err = dw.plans[0].EvaluateSequential(dw.q); err != nil {
		t.Fatal(err)
	}
	return dw
}

// run executes one DistRun under ctx on every rank whose cluster slot is
// non-nil (dead ranks pass nil) and returns rank 0's potentials plus every
// rank's report and error. opts renders each rank's options. A rank's
// DistRun must have joined the event-log watcher it started by the time it
// returns, whatever the run's outcome.
func (dw *distWorld) run(ctx context.Context, cls []*amt.Cluster, opts func(rank int) ExecOptions) ([]float64, []ExecReport, []error) {
	pots := make([][]float64, len(cls))
	reps := make([]ExecReport, len(cls))
	errs := make([]error, len(cls))
	var wg sync.WaitGroup
	for r, cl := range cls {
		if cl == nil {
			continue
		}
		wg.Add(1)
		go func(r int, cl *amt.Cluster) {
			defer wg.Done()
			pots[r], reps[r], errs[r] = DistRun(ctx, dw.plans[r], cl, dw.q, opts(r))
			if g := strayGoroutine("repro/internal/core.(*fabric).watch(", "repro/internal/core.(*fabric).run"); g != "" {
				dw.t.Errorf("rank %d: DistRun returned before its watcher:\n%s", r, g)
			}
		}(r, cl)
	}
	wg.Wait()
	return pots[0], reps, errs
}

// distOpts is the common option set of the in-process multi-rank tests.
func distOpts(rank int) ExecOptions {
	return ExecOptions{Workers: 2}
}

// rankExecutor is rank cl.Rank()'s executor of a fault-free run on st, on
// its fabric and armed, with no runtime running: the contract tests call its
// handlers directly.
func rankExecutor(t *testing.T, st *state, cl *amt.Cluster) (*executor, *fabric) {
	t.Helper()
	opts, err := distOpts(cl.Rank()).withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	ex := newExecutor(st, survivors(cl.World(), nil), cl.Rank(), opts)
	fb := newFabric(ex, cl)
	ex.arm()
	return ex, fb
}

// distCtx bounds a test's runs: a rank that cannot finish — coordinator
// gone, peers wedged — errors out after 90 s instead of hanging the suite.
func distCtx(t *testing.T) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// dieAt returns a progress callback that drops the rank dead once it has
// fired the given fraction of its owned nodes: Cluster.Close silences its
// heartbeats and tears down every socket, so from the survivors' side this
// is indistinguishable from a SIGKILLed process.
func dieAt(cl *amt.Cluster, at float64) func(fired, owned int) {
	var once sync.Once
	return func(fired, owned int) {
		if owned > 0 && float64(fired) >= at*float64(owned) {
			once.Do(func() { cl.Close() })
		}
	}
}

// assertSurvivorsOK fails the test unless every victim errored out and every
// other live rank finished cleanly.
func assertSurvivorsOK(t *testing.T, errs []error, victims ...int) {
	t.Helper()
	dead := map[int]bool{}
	for _, v := range victims {
		dead[v] = true
	}
	for r, err := range errs {
		switch {
		case dead[r] && err == nil:
			t.Errorf("victim rank %d finished cleanly after closing its cluster", r)
		case !dead[r] && err != nil:
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

// lazyHeartbeat gives the detector a full second before a verdict: several
// clusters plus their runtimes share this test process, and the 200ms
// default can declare a busy rank dead on loaded CI or under -race. A real
// death is still detected within a second.
func lazyHeartbeat(c *amt.ClusterConfig) {
	c.Heartbeat = amt.FailureDetectorConfig{Interval: 50 * time.Millisecond, MissedBeats: 20}
}

// distClusters brings up a world of in-process clusters joined over unix
// sockets: rank 0 first (its listener must exist before workers dial), then
// the workers concurrently (their NewCluster blocks until WELCOME). wire, when
// given, sets each rank's delivery clock and wire faults.
func distClusters(t *testing.T, world int, wire ...func(rank int, c *amt.ClusterConfig)) []*amt.Cluster {
	t.Helper()
	addr := filepath.Join(t.TempDir(), "rank0.sock")
	cfg := func(rank int) amt.ClusterConfig {
		c := amt.ClusterConfig{
			Rank: rank, World: world, Network: "unix", Addr: addr,
			Stamp: "distrib-test-v1",
		}
		lazyHeartbeat(&c)
		for _, w := range wire {
			w(rank, &c)
		}
		return c
	}
	cls := make([]*amt.Cluster, world)
	var err error
	if cls[0], err = amt.NewCluster(cfg(0)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, world)
	for r := 1; r < world; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			cls[r], errs[r] = amt.NewCluster(cfg(r))
		}(r)
	}
	wg.Wait()
	all := append([]*amt.Cluster(nil), cls...) // tests nil out the slots of ranks they kill
	t.Cleanup(func() {
		for _, cl := range all {
			if cl != nil {
				cl.Close()
			}
		}
	})
	for r := 1; r < world; r++ {
		if errs[r] != nil {
			t.Fatalf("rank %d join: %v", r, errs[r])
		}
	}
	return cls
}

// awaitEvent blocks until the rank's log, read from its oldest retained
// event, yields an event of the given kind and, for the kinds that carry
// one, wire generation (0: any).
func awaitEvent(t *testing.T, cl *amt.Cluster, kind amt.EventKind, gen uint32) amt.Event {
	t.Helper()
	sub := cl.Subscribe()
	defer sub.Close()
	timeout := time.AfterFunc(10*time.Second, sub.Close)
	defer timeout.Stop()
	for {
		ev, ok := sub.Next()
		if !ok {
			t.Fatalf("rank %d's log held no event of kind %d (generation %d) within 10s", cl.Rank(), kind, gen)
		}
		if ev.Kind == kind && (gen == 0 || ev.Gen == gen) {
			return ev
		}
	}
}

// startJob starts the standing cluster's next job on rank 0 and returns,
// rank by rank, what each live rank passes to its DistRun: rank 0 the job
// it allocated, a worker the one its own log hands it. The caller ends
// jobs[0] after the run.
func startJob(t *testing.T, cls []*amt.Cluster) []*amt.Job {
	t.Helper()
	jobs := make([]*amt.Job, len(cls))
	jobs[0], _ = cls[0].StartJob(context.Background(), nil)
	for r := 1; r < len(cls); r++ {
		if cls[r] != nil {
			jobs[r] = awaitEvent(t, cls[r], amt.EventJob, jobs[0].Gen).Job
		}
	}
	return jobs
}

// job is one job on the live ranks of a standing cluster, start to end, with
// each rank's options rendered by opts.
func (dw *distWorld) job(t *testing.T, cls []*amt.Cluster, opts func(rank int) ExecOptions) ([]float64, []ExecReport, []error) {
	t.Helper()
	jobs := startJob(t, cls)
	defer jobs[0].End()
	return dw.run(distCtx(t), cls, func(r int) ExecOptions {
		o := opts(r)
		o.Job = jobs[r]
		return o
	})
}

// runJob is one fault-free job on the live ranks of a standing cluster,
// start to end.
func (dw *distWorld) runJob(t *testing.T, cls []*amt.Cluster) ([]float64, []ExecReport) {
	t.Helper()
	pots, reps, errs := dw.job(t, cls, distOpts)
	assertSurvivorsOK(t, errs)
	return pots, reps
}

// assertRankLost fails the test unless every victim errored out and every
// other live rank failed with a *RankLostError naming one of the victims:
// a death ends the run everywhere.
func assertRankLost(t *testing.T, cls []*amt.Cluster, errs []error, victims ...int) {
	t.Helper()
	for r, err := range errs {
		var lost *RankLostError
		switch {
		case cls[r] == nil:
		case slices.Contains(victims, r):
			if err == nil {
				t.Errorf("victim rank %d finished cleanly after closing its cluster", r)
			}
		case !errors.As(err, &lost) || !slices.Contains(victims, lost.Rank):
			t.Fatalf("rank %d returned %v, want the loss of a rank in %v", r, err, victims)
		}
	}
}

// rerun is the caller's side of a rank death: every live rank's run failed
// naming a victim (assertRankLost), and the job is run again on the
// survivors — placed against the shrunk membership — and returned.
func (dw *distWorld) rerun(t *testing.T, cls []*amt.Cluster, errs []error, victims ...int) ([]float64, []ExecReport) {
	t.Helper()
	assertRankLost(t, cls, errs, victims...)
	for _, v := range victims {
		cls[v] = nil
	}
	return dw.runJob(t, cls)
}

// Four ranks over a real unix-socket mesh must reproduce the sequential
// potentials exactly (modulo summation-order rounding): the 1e-12 gate the
// multi-process smoke run enforces.
func TestDistRunMatchesSequential(t *testing.T) {
	const world = 4
	dw := newDistWorld(t, world, 1500)
	pots, reps, errs := dw.run(distCtx(t), distClusters(t, world), distOpts)
	assertSurvivorsOK(t, errs)
	assertSame(t, pots, dw.want, 1e-12)
	rep := reps[0]
	if rep.Localities != world {
		t.Errorf("Localities = %d, want %d", rep.Localities, world)
	}
	if rep.Runtime.ParcelsSent == 0 {
		t.Error("rank 0 sent no wire parcels")
	}
	if tr := rep.Runtime.Transport; tr.WireMessages == 0 || tr.BytesOut == 0 {
		t.Errorf("transport counters empty: %+v", tr)
	}
}

// A distributed run traces like an in-process one: each rank's tracer
// records one event per edge that rank applies, stamped with its rank, and
// every edge is applied once somewhere — near tasks and gathered targets
// included — so the two ranks' events add up to the graph's edges.
func TestDistRunTracesEveryEdgeOnce(t *testing.T) {
	const world = 2
	dw := newDistWorld(t, world, 1500)
	tracers := make([]*trace.Tracer, world)
	pots, _, errs := dw.run(distCtx(t), distClusters(t, world), func(r int) ExecOptions {
		o := distOpts(r)
		tracers[r] = trace.New(o.Workers)
		o.Tracer = tracers[r]
		return o
	})
	assertSurvivorsOK(t, errs)
	assertSame(t, pots, dw.want, 1e-12)
	var events int64
	for r, tr := range tracers {
		evs := tr.Snapshot()
		if len(evs) == 0 {
			t.Errorf("rank %d traced nothing", r)
		}
		for _, ev := range evs {
			if ev.Locality != int32(r) {
				t.Fatalf("rank %d traced an event of locality %d", r, ev.Locality)
			}
		}
		events += int64(len(evs))
	}
	if want := dw.plans[0].Graph.NumEdges(); events != want {
		t.Errorf("the ranks traced %d events for %d edges", events, want)
	}
}

// Coalescing on the wire: a fired node ships one parcel per remote
// destination rank however many of its out edges go there, and the near
// field ships none. So each rank's runtime hands the cluster some parcels,
// and at most one per distinct (source node it homes, remote destination
// rank) pair over the placement's non-S->T out edges, plus, on a worker, one
// per target node it homes: the gather.
func TestMinCommReducesTraffic(t *testing.T) {
	for _, world := range []int{2, 4} {
		t.Run(fmt.Sprintf("%d ranks", world), func(t *testing.T) {
			dw := newDistWorld(t, world, 1500)
			g := dw.plans[0].Graph
			homes := dw.plans[0].place(survivors(world, nil))
			pairs, gathers := make([]int64, world), make([]int64, world)
			var remote, coalesced int64
			for i := range g.Nodes {
				if g.Nodes[i].Kind == dag.NodeT && homes[i] != 0 {
					gathers[homes[i]]++
				}
				var dests []int32
				for _, e := range g.Nodes[i].Out {
					if d := homes[e.To]; e.Op != dag.OpS2T && d != homes[i] {
						remote++
						if !slices.Contains(dests, d) {
							dests = append(dests, d)
						}
					}
				}
				pairs[homes[i]] += int64(len(dests))
				coalesced += int64(len(dests))
			}
			if remote <= coalesced {
				t.Fatalf("fixture: %d remote edges in %d (node, rank) pairs, nothing to coalesce", remote, coalesced)
			}
			pots, reps, errs := dw.run(distCtx(t), distClusters(t, world), distOpts)
			assertSurvivorsOK(t, errs)
			assertSame(t, pots, dw.want, 1e-12)
			for r, rep := range reps {
				limit := pairs[r] + gathers[r]
				if sent := rep.Runtime.ParcelsSent; sent == 0 || sent > limit {
					t.Errorf("rank %d sent %d parcels, want 1..%d: %d (node, rank) pairs and %d target nodes",
						r, sent, limit, pairs[r], gathers[r])
				}
			}
		})
	}
}

// Killing a worker rank mid-run fails the run on every survivor with an
// error that names the victim, and the job re-run on the survivors produces
// 1e-12 potentials at rank 0.
func TestDistRunRecoversFromRankDeath(t *testing.T) {
	const world = 4
	const victim = world - 1
	dw := newDistWorld(t, world, 1500)
	cls := distClusters(t, world)
	_, _, errs := dw.run(distCtx(t), cls, func(r int) ExecOptions {
		o := distOpts(r)
		if r == victim {
			o.OnProgress = dieAt(cls[r], 0.5)
		}
		return o
	})
	if want := fmt.Sprintf("rank %d lost", victim); errs[0] == nil || !strings.Contains(errs[0].Error(), want) {
		t.Errorf("rank 0 returned %v, want an error saying %q", errs[0], want)
	}
	pots, reps := dw.rerun(t, cls, errs, victim)
	assertSame(t, pots, dw.want, 1e-12)
	if got := reps[0].Localities; got != world {
		t.Errorf("the re-run reports %d localities, want the world of %d", got, world)
	}
}

// Closing a rank's cluster under a running evaluation must fail that rank's
// DistRun at once — not leave it idling until its context ends — whichever
// role the rank plays.
func TestDistRunFailsAtOnceOnClusterClose(t *testing.T) {
	for _, closer := range []int{1, 0} {
		dw := newDistWorld(t, 2, 1500)
		cls := distClusters(t, 2)
		var closedAt time.Time
		returned := make([]time.Time, 2)
		errs := make([]error, 2)
		var wg sync.WaitGroup
		for r := range cls {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				o := distOpts(r)
				if r == closer {
					var once sync.Once
					o.OnProgress = func(fired, owned int) {
						if fired*2 >= owned {
							once.Do(func() {
								cls[r].Close()
								closedAt = time.Now()
							})
						}
					}
				}
				_, _, errs[r] = DistRun(distCtx(t), dw.plans[r], cls[r], dw.q, o)
				returned[r] = time.Now()
			}(r)
		}
		wg.Wait()
		if closedAt.IsZero() {
			t.Fatalf("rank %d never reached its close point", closer)
		}
		if err := errs[closer]; err == nil || !strings.Contains(err.Error(), "cluster closed") {
			t.Errorf("rank %d closed its cluster mid-run; DistRun returned %v", closer, err)
		}
		if d := returned[closer].Sub(closedAt); d > time.Second {
			t.Errorf("rank %d's DistRun outlived its Close by %v", closer, d)
		}
		// The other rank fails too: a worker loses its coordinator, rank 0
		// loses the closed worker.
		var lost *RankLostError
		if other := errs[1-closer]; other == nil || (closer == 1) != (errors.As(other, &lost) && lost.Rank == 1) {
			t.Errorf("closer %d: rank %d returned %v", closer, 1-closer, other)
		}
	}
}

// A worker that enters its run only after the coordinator is gone was not
// listening when the loss was reported; it must still fail at once (it used
// to wait until its deadline — seen as a 90s TestAllRanksDeadFails when rank
// 0 died before a starved rank 1 got into DistRun).
func TestDistRunFailsAtOnceWhenCoordinatorAlreadyLost(t *testing.T) {
	dw := newDistWorld(t, 2, 500)
	cls := distClusters(t, 2)
	for _, cl := range cls {
		if err := cl.Start(); err != nil {
			t.Fatal(err)
		}
	}
	cls[0].Close()
	awaitEvent(t, cls[1], amt.EventCoordLost, 0) // the worker has noticed
	start := time.Now()
	_, _, err := DistRun(distCtx(t), dw.plans[1], cls[1], dw.q, distOpts(1))
	if err == nil || !strings.Contains(err.Error(), "rank 0 lost") {
		t.Errorf("DistRun on a worker without a coordinator returned %v", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("DistRun took %v to refuse", d)
	}
}

// A run ends with its context, on every rank and at once: a cancel during the
// run, and a deadline that had passed before it, each make every rank return
// within a second with an error that matches the context's. A cancel on rank
// 0 alone ends the worker's run too, cleanly and as promptly: rank 0 ends a
// run that failed there, so nobody waits out a deadline of its own.
func TestDistRunHonoursItsContext(t *testing.T) {
	dw := newDistWorld(t, 2, 1500)
	// run runs rank r under ctx[r] and returns what and when each returned.
	run := func(ctx [2]context.Context, opts func(int) ExecOptions) ([]error, []time.Time) {
		cls := distClusters(t, 2)
		errs, returned := make([]error, 2), make([]time.Time, 2)
		var wg sync.WaitGroup
		for r := range cls {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				_, _, errs[r] = DistRun(ctx[r], dw.plans[r], cls[r], dw.q, opts(r))
				returned[r] = time.Now()
			}(r)
		}
		wg.Wait()
		return errs, returned
	}
	// halfway cancels once rank 0 has fired half its nodes, and notes when.
	halfway := func(cancel context.CancelFunc, at *time.Time) func(int) ExecOptions {
		var once sync.Once
		return func(r int) ExecOptions {
			o := distOpts(r)
			if r == 0 {
				o.OnProgress = func(fired, owned int) {
					if fired*2 >= owned {
						once.Do(func() {
							*at = time.Now()
							cancel()
						})
					}
				}
			}
			return o
		}
	}
	check := func(t *testing.T, errs []error, returned []time.Time, ended time.Time, want ...error) {
		t.Helper()
		if ended.IsZero() {
			t.Fatal("rank 0 never reached its cancel point")
		}
		for r, err := range errs {
			if !errors.Is(err, want[r]) {
				t.Errorf("rank %d returned %v, want %v", r, err, want[r])
			}
			if d := returned[r].Sub(ended); d > time.Second {
				t.Errorf("rank %d returned %v after the context ended", r, d)
			}
		}
	}

	t.Run("canceled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var at time.Time
		errs, returned := run([2]context.Context{ctx, ctx}, halfway(cancel, &at))
		check(t, errs, returned, at, context.Canceled, context.Canceled)
	})
	t.Run("rank 0 canceled alone", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var at time.Time
		errs, returned := run([2]context.Context{ctx, distCtx(t)}, halfway(cancel, &at))
		check(t, errs, returned, at, context.Canceled, nil)
	})
	t.Run("deadline passed", func(t *testing.T) {
		ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
		defer cancel()
		start := time.Now()
		errs, returned := run([2]context.Context{ctx, ctx}, distOpts)
		check(t, errs, returned, start, context.DeadlineExceeded, context.DeadlineExceeded)
	})
}

// A worker's run needs nothing from rank 0 to start: it has the charges, so
// on a level-1 plan (S->T edges and nothing else) it fires every node it owns
// — its roots, and the targets its near tasks complete — before rank 0 has
// entered its run. It used to wait for a charge frame from rank 0.
func TestWorkerRunNeedsNothingFromRankZero(t *testing.T) {
	const n = 800
	sp := points.Generate(points.Cube, n, 1)
	tp := points.Generate(points.Cube, n, 2)
	q := points.Charges(n, 3)
	k := kernel.NewLaplace(4)
	var plans [2]*Plan
	for r := range plans {
		var err error
		if plans[r], err = NewPlan(sp, tp, k, Options{Threshold: n / 4}); err != nil {
			t.Fatal(err)
		}
	}
	g := plans[0].Graph
	if s2t := g.EdgeCount[dag.OpS2T]; s2t == 0 || s2t != g.NumEdges() {
		t.Fatalf("fixture: %d of %d edges are S->T", s2t, g.NumEdges())
	}
	homes := plans[0].place(survivors(2, nil))
	if !slices.ContainsFunc(plans[0].batches.P2P, func(pb dag.P2PBatch) bool { return homes[pb.Target] == 1 }) {
		t.Fatal("fixture: the worker homes no target leaf")
	}
	want, err := plans[0].EvaluateSequential(q)
	if err != nil {
		t.Fatal(err)
	}
	cls := distClusters(t, 2)
	for _, cl := range cls {
		if err := cl.Start(); err != nil {
			t.Fatal(err)
		}
	}

	fired := make(chan struct{})
	o1 := distOpts(1)
	o1.OnProgress = func(done, owned int) {
		if done == owned {
			close(fired)
		}
	}
	var err1 error
	ran := make(chan struct{})
	go func() {
		defer close(ran)
		_, _, err1 = DistRun(distCtx(t), plans[1], cls[1], q, o1)
	}()
	select {
	case <-fired:
	case <-ran:
		t.Fatalf("the worker's run ended before it had fired its nodes: %v", err1)
	case <-time.After(20 * time.Second):
		t.Fatal("the worker fired nothing of its own within 20s of entering its run without rank 0")
	}
	got, _, err := DistRun(distCtx(t), plans[0], cls[0], q, distOpts(0))
	if err != nil {
		t.Fatal(err)
	}
	if <-ran; err1 != nil {
		t.Fatalf("the worker: %v", err1)
	}
	assertSame(t, got, want, 1e-12)
}

// Per-rank kernels, as separate OS processes have them: each rank's shift
// tables are filled by whichever I->I edges that rank happens to own, in
// whatever order its workers reach them. The slots are filled from the
// canonical lattice vector, so the run meets the 1e-12 gate and a
// sequential pass over either rank's part-filled tables afterwards is
// bit-identical to one on a kernel that has seen nothing.
func TestDistRunPerRankKernels(t *testing.T) {
	n := 1500
	if raceEnabled {
		n = 750
	}
	sp := points.Generate(points.Cube, n, 1)
	tp := points.Generate(points.Cube, n, 2)
	q := points.Charges(n, 3)
	build := func() *Plan {
		plan, err := NewPlan(sp, tp, kernel.NewYukawa(6, 4.0), Options{Method: dag.Advanced, Threshold: 40})
		if err != nil {
			t.Fatal(err)
		}
		return plan
	}
	want, err := build().EvaluateSequential(q)
	if err != nil {
		t.Fatal(err)
	}
	dw := &distWorld{t: t, plans: []*Plan{build(), build()}, q: q, want: want}
	pots, _, errs := dw.run(distCtx(t), distClusters(t, 2), distOpts)
	assertSurvivorsOK(t, errs)
	assertSame(t, pots, want, 1e-12)
	for r, plan := range dw.plans {
		got, err := plan.EvaluateSequential(q)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("rank %d's tables: potential %d = %v, fresh kernel gives %v", r, i, got[i], want[i])
			}
		}
	}
}

// Regression: a DAG in which a worker rank owns no target (the one-point
// plan here, whose two nodes live on rank 0; more ranks than target leaves
// in general) lets rank 0 finish without that worker, and rank 0's
// run-complete signal used to be dropped when it beat the worker into its
// run — the worker then sat in DistRun until its timeout. The signal is in
// the cluster's log, and a run that finds its own there when it attaches
// returns without evaluating.
func TestDistRunWorkerLateToFinishedRun(t *testing.T) {
	sp := points.Generate(points.Cube, 1, 1)
	tp := points.Generate(points.Cube, 1, 2)
	q := points.Charges(1, 3)
	k := kernel.NewLaplace(4)
	var plans [2]*Plan
	for r := range plans {
		var err error
		if plans[r], err = NewPlan(sp, tp, k, Options{Threshold: 1}); err != nil {
			t.Fatal(err)
		}
	}
	want, err := plans[0].EvaluateSequential(q)
	if err != nil {
		t.Fatal(err)
	}
	cls := distClusters(t, 2)
	// Rank 0 fires both nodes, gathers its own target and broadcasts the
	// run-complete signal; it sends the worker nothing. The worker enters its
	// run after that; the grace period only biases the interleaving towards
	// the one that used to hang (without it the signal may find the run's
	// watcher waiting and the test passes for the ordinary reason).
	fired := make(chan struct{})
	o0 := distOpts(0)
	o0.OnProgress = func(done, owned int) {
		if done == owned {
			close(fired)
		}
	}
	var got []float64
	var err0 error
	ran := make(chan struct{})
	go func() {
		defer close(ran)
		got, _, err0 = DistRun(distCtx(t), plans[0], cls[0], q, o0)
	}()
	<-fired
	time.Sleep(200 * time.Millisecond)
	start := time.Now()
	if _, _, err := DistRun(distCtx(t), plans[1], cls[1], q, distOpts(1)); err != nil {
		t.Fatalf("the late worker: %v", err)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("the late worker took %v to learn the run was over", d)
	}
	<-ran
	if err0 != nil {
		t.Fatal(err0)
	}
	assertSame(t, got, want, 1e-12)
}

// A run-complete signal ends the run of its generation and no other. Rank 0
// starts three jobs and ends the first and the third at once, before the
// worker has entered either; the third's signal sits in the worker's log
// behind the second job when that one's run starts there and reads the log
// from its job on — it must not take it, and evaluate — and the worker's run
// of the third job, entered late, finds its own signal when it attaches and
// returns without evaluating.
func TestRunDoneReleasesOnlyItsGeneration(t *testing.T) {
	dw := newDistWorld(t, 2, 600)
	cls := distClusters(t, 2)
	for _, cl := range cls {
		if err := cl.Start(); err != nil {
			t.Fatal(err)
		}
	}
	main := cls[1].Subscribe() // the worker's main loop: it keeps the log
	defer main.Close()
	var jobs [3][2]*amt.Job
	for i := range jobs {
		jobs[i][0], _ = cls[0].StartJob(context.Background(), nil)
		if i != 1 {
			run := cls[0].Attach(jobs[i][0], func(amt.Frame) {})
			cls[0].Shutdown()
			run.Close()
		}
		jobs[i][0].End()
		jobs[i][1] = awaitEvent(t, cls[1], amt.EventJob, jobs[i][0].Gen).Job
	}
	awaitEvent(t, cls[1], amt.EventRunDone, jobs[2][0].Gen)
	opts := func(job [2]*amt.Job) func(int) ExecOptions {
		return func(r int) ExecOptions {
			o := distOpts(r)
			o.Job = job[r]
			return o
		}
	}
	pots, _, errs := dw.run(distCtx(t), cls, opts(jobs[1]))
	assertSurvivorsOK(t, errs)
	assertSame(t, pots, dw.want, 1e-12)

	start := time.Now()
	if _, _, err := DistRun(distCtx(t), dw.plans[1], cls[1], dw.q, opts(jobs[2])(1)); err != nil {
		t.Fatalf("the worker's late run of the third job: %v", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("the worker took %v to learn that the third job was over", d)
	}
}

// The exactly-once filter's contract, parcel by parcel: the first copy of a
// parcel installs its source payload, applies its edges but the far ones
// and counts its source once into every far batch it feeds here; deliver
// applies an edge holding the target's lock alone, as in process — never
// the source's; and a second copy installs nothing — a payload is never
// rewritten under an edge that reads it — applies nothing and counts
// nothing. No end-to-end gate sees a second install (a true copy writes the
// same values), so it is pinned here, and so is the refusal of a parcel
// that does not fit the placement every rank computed: from a source this
// rank homes, or for a target it does not.
func TestFabricClaimContract(t *testing.T) {
	dw := newDistWorld(t, 2, 600)
	cls := distClusters(t, 2)
	st := dw.plans[0].newState(false)
	ex, fb := rankExecutor(t, st, cls[0])
	// carried: the edges of node id a parcel from rank 1 carries here, those
	// deliver applies and the far ones its batches here take.
	carried := func(id int32) (delivered, far []int32) {
		for j, e := range ex.g.Nodes[id].Out {
			switch {
			case !ex.hosts(e.To) || e.Op == dag.OpS2T:
			case dag.FarBatched(e.Op):
				far = append(far, int32(j))
			default:
				delivered = append(delivered, int32(j))
			}
		}
		return delivered, far
	}
	remote := func(n dag.Node) bool { return !ex.hosts(n.ID) && n.Kind != dag.NodeS }
	src := slices.IndexFunc(ex.g.Nodes, func(n dag.Node) bool {
		delivered, _ := carried(n.ID)
		return remote(n) && len(delivered) >= 2
	})
	// A source of far batches here, each of which waits for another source
	// too: with no runtime running, a batch that fired could not spawn.
	farSrc := slices.IndexFunc(ex.g.Nodes, func(n dag.Node) bool {
		_, far := carried(n.ID)
		return remote(n) && len(far) > 0 &&
			!slices.ContainsFunc(ex.feeds[n.ID], func(bi int32) bool { return ex.far[bi].sources < 2 })
	})
	if src < 0 || farSrc < 0 {
		t.Fatal("fixture: no expansion on rank 1 feeds two edges, or a far batch, on rank 0")
	}
	// parcel encodes node n's parcel as rank 1 would, its payload set to v.
	sender := dw.plans[0].newState(false)
	parcel := func(n *dag.Node, v complex128, out []int32) amt.Frame {
		vec := sender.payload(n.ID)
		for i := range vec {
			vec[i] = v + complex(float64(i), 0)
		}
		return amt.Frame{Kind: wireKindParcel, Payload: sender.encodeParcel(n, out)}
	}
	countdown := func(n *dag.Node, edges []int32) (sum int32) {
		for _, j := range edges {
			sum += ex.remaining[n.Out[j].To].Load()
		}
		return sum
	}

	for _, misfit := range []func(dag.Node) bool{
		func(m dag.Node) bool { return ex.hosts(m.ID) && m.Kind != dag.NodeS && len(m.Out) > 0 },
		func(m dag.Node) bool {
			return !ex.hosts(m.ID) && m.Kind != dag.NodeS && len(m.Out) > 0 && !ex.hosts(m.Out[0].To)
		},
	} {
		i := slices.IndexFunc(ex.g.Nodes, misfit)
		if i < 0 {
			t.Fatal("fixture: no misfit parcel to send")
		}
		m, refused := &ex.g.Nodes[i], fb.decodeErrs.Load()
		fb.handleParcel(nil, amt.Frame{Kind: wireKindParcel, Payload: st.encodeParcel(m, []int32{0})})
		if fb.decodeErrs.Load() != refused+1 || fb.installed[m.ID] {
			t.Fatalf("a parcel of node %d (homed here %v) for node %d (homed here %v) was not refused",
				m.ID, ex.hosts(m.ID), m.Out[0].To, ex.hosts(m.Out[0].To))
		}
	}
	fb.decodeErrs.Store(0)

	n := &ex.g.Nodes[src]
	edges, _ := carried(n.ID)
	first, last := edges[:len(edges)-1], edges[len(edges)-1]
	before := countdown(n, edges)
	fb.handleParcel(nil, parcel(n, 0.5, first))
	if !fb.installed[n.ID] || fb.decodeErrs.Load() != 0 {
		t.Fatalf("first copy: installed %v, %d decode errors", fb.installed[n.ID], fb.decodeErrs.Load())
	}
	if got := countdown(n, edges); got != before-int32(len(first)) {
		t.Fatalf("the first copy counted its targets down by %d, want %d", before-got, len(first))
	}
	installed := slices.Clone(st.payload(n.ID))

	// An edge of the installed source, delivered while someone else holds
	// the source's lock: it must apply without it.
	ex.locks[n.ID].Lock()
	delivered := make(chan struct{})
	go func() {
		defer close(delivered)
		ex.deliver(nil, n, last)
	}()
	select {
	case <-delivered:
	case <-time.After(5 * time.Second):
		t.Fatal("deliver waited for the source's lock")
	}
	ex.locks[n.ID].Unlock()
	if got := countdown(n, edges); got != before-int32(len(edges)) {
		t.Fatalf("edge %d/%d: %d inputs outstanding, want %d", n.ID, last, got, before-int32(len(edges)))
	}

	// A second copy of every edge, carrying other values: nothing
	// installed, nothing applied.
	fb.handleParcel(nil, parcel(n, -3, edges))
	if got := countdown(n, edges); got != before-int32(len(edges)) {
		t.Errorf("a second copy counted its targets down again: %d inputs outstanding, want %d", got, before-int32(len(edges)))
	}
	if !slices.Equal(st.payload(n.ID), installed) {
		t.Fatal("a second copy rewrote the installed payload")
	}
	if !ex.locks[n.ID].TryLock() {
		t.Fatal("a parcel left its source's lock held")
	}
	ex.locks[n.ID].Unlock()

	// A parcel's far edges are its batches' here: its first copy applies
	// none of them and counts the source once into every batch it feeds; a
	// second copy counts it again into none.
	m := &ex.g.Nodes[farSrc]
	_, far := carried(m.ID)
	pending := func() (sum int32) {
		for _, bi := range ex.feeds[m.ID] {
			sum += ex.far[bi].pending.Load()
		}
		return sum
	}
	farBefore, want := countdown(m, far), pending()-int32(len(ex.feeds[m.ID]))
	for c := 1; c <= 2; c++ {
		fb.handleParcel(nil, parcel(m, 0.5, far))
		if got := countdown(m, far); got != farBefore {
			t.Fatalf("copy %d applied %d far edges one by one; its batches take them", c, farBefore-got)
		}
		if got := pending(); got != want {
			t.Fatalf("after copy %d the %d far batches node %d feeds wait for %d sources, want %d",
				c, len(ex.feeds[m.ID]), m.ID, got, want)
		}
	}

	// A target node's parcel is the gather: at rank 0 the first copy installs
	// its potentials and counts the target in, a second counts nothing; at a
	// worker rank it is refused.
	target := func(ex *executor, m dag.Node) bool { return m.Kind == dag.NodeT && !ex.hosts(m.ID) }
	tn := &ex.g.Nodes[slices.IndexFunc(ex.g.Nodes, func(m dag.Node) bool { return target(ex, m) })]
	b := tn.Box
	for i := b.Lo; i < b.Hi; i++ {
		sender.pot[i] = float64(i) + 0.25
	}
	left, refused := ex.targetsLeft.Load(), fb.decodeErrs.Load()
	for range 2 {
		fb.handleParcel(nil, amt.Frame{Kind: wireKindParcel, Payload: sender.encodeParcel(tn, nil)})
	}
	if got := ex.targetsLeft.Load(); got != left-1 || fb.decodeErrs.Load() != refused {
		t.Errorf("a target parcel delivered twice at rank 0: %d -> %d targets left, %d decode errors", left, got, fb.decodeErrs.Load()-refused)
	}
	if !slices.Equal(st.pot[b.Lo:b.Hi], sender.pot[b.Lo:b.Hi]) {
		t.Error("rank 0 did not install the gathered potentials")
	}
	wst := dw.plans[1].newState(false)
	wex, wfb := rankExecutor(t, wst, cls[1])
	tn = &wex.g.Nodes[slices.IndexFunc(wex.g.Nodes, func(m dag.Node) bool { return target(wex, m) })]
	wfb.handleParcel(nil, amt.Frame{Kind: wireKindParcel, Payload: sender.encodeParcel(tn, nil)})
	if wfb.decodeErrs.Load() != 1 || wfb.installed[tn.ID] || slices.ContainsFunc(wst.pot, func(v float64) bool { return v != 0 }) {
		t.Errorf("a target parcel at a worker rank: %d decode errors, installed %v", wfb.decodeErrs.Load(), wfb.installed[tn.ID])
	}
}

// A death verdict that reaches rank 0 after its last target is in comes too
// late to matter: the potentials are whole. Rank 0's run is still waiting
// for the acks of its own parcels — here one to the rank the verdict names,
// which never acks it — and the verdict must not fail the run: it settles
// that parcel, and the run returns. With one target still out, the same
// verdict fails the run. Closing the cluster afterwards makes the watcher
// read its log to the end, so the verdict has been judged either way.
func TestVerdictAfterLastGatherKeepsTheAnswer(t *testing.T) {
	dw := newDistWorld(t, 2, 600)
	for _, left := range []int64{0, 1} {
		t.Run(fmt.Sprintf("targets-left=%d", left), func(t *testing.T) {
			cls := distClusters(t, 2)
			for _, cl := range cls {
				if err := cl.Start(); err != nil {
					t.Fatal(err)
				}
			}
			st := dw.plans[0].newState(false)
			ex, fb := rankExecutor(t, st, cls[0])
			ex.rt = amt.New(amt.Config{Workers: 1})
			run := cls[0].Attach(ex.opts.Job, fb.onFrame)
			watched := make(chan struct{})
			go func() {
				defer close(watched)
				fb.watch(run, ex.opts.Job.Gen)
			}()
			seeded, ran := make(chan struct{}), make(chan struct{})
			go func() {
				defer close(ran)
				ex.rt.Run(func() {
					defer close(seeded)
					ex.rt.Hold() // as fabric.seed: released by the last target
					// Rank 1 never attaches this run: the parcel waits at its
					// fence, unacknowledged.
					cls[0].Send(ex.rt, 1, wireKindParcel, []byte("never acked"))
					ex.targetsLeft.Store(left + 1)
					ex.gathered()
				})
			}()
			<-seeded
			cls[0].DeclareDead(1)
			select {
			case <-ran:
			case <-time.After(10 * time.Second):
				t.Fatal("rank 0's run did not return after the verdict")
			}
			cls[0].Close()
			<-watched
			run.Close()
			var lost *RankLostError
			if failed := errors.As(fb.err(), &lost) && lost.Rank == 1; failed != (left > 0) {
				t.Errorf("with %d targets left the verdict for rank 1 left the run's error at %v", left, fb.err())
			}
		})
	}
}

// strayGoroutine returns the stack of a goroutine that is running fn and
// was started by the calling goroutine from within creator, or "" when
// there is none: a call that starts a goroutine from creator must have
// joined it by the time it returns.
func strayGoroutine(fn, creator string) string {
	self := make([]byte, 64)
	self = self[:runtime.Stack(self, false)]
	id, _, _ := strings.Cut(strings.TrimPrefix(string(self), "goroutine "), " ")
	buf := make([]byte, 1<<16)
	n := runtime.Stack(buf, true)
	for n == len(buf) {
		buf = make([]byte, 2*len(buf))
		n = runtime.Stack(buf, true)
	}
	for _, g := range strings.Split(string(buf[:n]), "\n\n") {
		if strings.Contains(g, fn) && strings.Contains(g, "created by "+creator+" in goroutine "+id+"\n") {
			return g
		}
	}
	return ""
}
