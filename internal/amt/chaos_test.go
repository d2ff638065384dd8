// Chaos harness: full multipole evaluations (cube/sphere x Laplace/Yukawa)
// executed by four ranks joined over real unix sockets, with a seeded
// FaultyTransport between every rank's delivery engine and its socket, gated
// at 1e-12 relative against the sequential evaluation. This is the
// acceptance harness for the whole wire stack — the frame codec, the socket
// transport, seq/ack/retransmit and the applied bits — on the path production runs: the DAG
// tolerates arbitrary edge reordering (Ltaief & Yokota; Agullo et al.), so
// at-least-once delivery with exactly-once effect must leave the potentials
// unchanged under drops, duplication, reordering, and a paused rank.
//
// Run the full matrix with `make chaos`; `go test -short` (the ci target)
// keeps the acceptance profile on all four workloads.
package amt_test

import (
	"context"
	"math"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/amt"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/points"
)

const (
	chaosRanks   = 4
	chaosWorkers = 2
	chaosTol     = 1e-12
)

type chaosWorkload struct {
	name string
	dist points.Distribution
	kern func() kernel.Kernel
}

func chaosWorkloads() []chaosWorkload {
	p := kernel.OrderForDigits(3)
	return []chaosWorkload{
		{"cube/laplace", points.Cube, func() kernel.Kernel { return kernel.NewLaplace(p) }},
		{"cube/yukawa", points.Cube, func() kernel.Kernel { return kernel.NewYukawa(p, 4.0) }},
		{"sphere/laplace", points.Sphere, func() kernel.Kernel { return kernel.NewLaplace(p) }},
		{"sphere/yukawa", points.Sphere, func() kernel.Kernel { return kernel.NewYukawa(p, 4.0) }},
	}
}

// chaosWorld is one workload prepared for repeated four-rank runs: SPMD, so
// every rank owns its own identically-built plan (placement is written into
// the plan's graph), but all of them share one kernel instance — its operator
// tables are built once per workload, not once per rank per case. The plans
// are built back to back before anything evaluates: Kernel.Prepare is not
// safe against a concurrent evaluation.
type chaosWorld struct {
	plans []*core.Plan
	q     []float64
	want  []float64 // plans[0].EvaluateSequential(q)
}

func newChaosWorld(t *testing.T, wl chaosWorkload) *chaosWorld {
	t.Helper()
	n := 1500
	if chaosRace {
		n = 800
	}
	sp := points.Generate(wl.dist, n, 1)
	tp := points.Generate(wl.dist, n, 2)
	k := wl.kern()
	cw := &chaosWorld{q: points.Charges(n, 3)}
	for r := 0; r < chaosRanks; r++ {
		plan, err := core.NewPlan(sp, tp, k, core.Options{Threshold: 40})
		if err != nil {
			t.Fatal(err)
		}
		cw.plans = append(cw.plans, plan)
	}
	var err error
	if cw.want, err = cw.plans[0].EvaluateSequential(cw.q); err != nil {
		t.Fatalf("sequential reference: %v", err)
	}
	return cw
}

// chaosClusters brings up chaosRanks in-process clusters joined over unix
// sockets: rank 0 first (its listener must exist before workers dial), then
// the workers concurrently (their NewCluster blocks until WELCOME). The
// heartbeat is lazy — a 1s verdict — so four clusters plus four runtimes
// sharing two cores under -race never see a busy rank declared dead. fault,
// when non-nil, is injected on every rank's outbound wire (each rank seeded
// differently).
func chaosClusters(t *testing.T, fault *amt.FaultProfile) []*amt.Cluster {
	t.Helper()
	addr := filepath.Join(t.TempDir(), "rank0.sock")
	cfg := func(rank int) amt.ClusterConfig {
		c := amt.ClusterConfig{
			Rank: rank, World: chaosRanks, Network: "unix", Addr: addr,
			Stamp:     "chaos-test-v1",
			Heartbeat: amt.FailureDetectorConfig{Interval: 50 * time.Millisecond, MissedBeats: 20},
			Delivery:  chaosDelivery(),
		}
		if fault != nil {
			f := *fault
			f.Seed = int64(42 + rank)
			c.Fault = &f
		}
		return c
	}
	cls := make([]*amt.Cluster, chaosRanks)
	errs := make([]error, chaosRanks)
	if cls[0], errs[0] = amt.NewCluster(cfg(0)); errs[0] != nil {
		t.Fatal(errs[0])
	}
	var wg sync.WaitGroup
	for r := 1; r < chaosRanks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			cls[r], errs[r] = amt.NewCluster(cfg(r))
		}(r)
	}
	wg.Wait()
	t.Cleanup(func() {
		for _, cl := range cls {
			if cl != nil {
				cl.Close()
			}
		}
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d join: %v", r, err)
		}
	}
	return cls
}

// run evaluates the workload across a fresh set of clusters with the given
// wire faults (chaosClusters), as one-shot runs (runOn).
func (cw *chaosWorld) run(t *testing.T, fault *amt.FaultProfile, kills map[int]float64) ([]float64, []core.ExecReport, []error) {
	t.Helper()
	return cw.runOn(t, chaosClusters(t, fault), kills, nil)
}

// runOn evaluates the workload on the ranks whose cluster slot is non-nil,
// each as its side of jobs[rank] (nil: one-shot runs); kills maps a worker
// rank to the fraction of its local progress at which it drops dead —
// Cluster.Close silences its heartbeats and severs its sockets exactly as a
// SIGKILL would. It returns rank 0's potentials and every rank's report and
// error.
func (cw *chaosWorld) runOn(t *testing.T, cls []*amt.Cluster, kills map[int]float64, jobs []*amt.Job) ([]float64, []core.ExecReport, []error) {
	t.Helper()
	pots := make([][]float64, chaosRanks)
	reps := make([]core.ExecReport, chaosRanks)
	errs := make([]error, chaosRanks)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	for r := 0; r < chaosRanks; r++ {
		if cls[r] == nil {
			continue
		}
		opts := core.ExecOptions{Workers: chaosWorkers}
		if jobs != nil {
			opts.Job = jobs[r]
		}
		if at, ok := kills[r]; ok {
			var die sync.Once
			cl := cls[r]
			opts.OnProgress = func(fired, owned int) {
				if owned > 0 && float64(fired) >= at*float64(owned) {
					die.Do(func() { cl.Close() })
				}
			}
		}
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			pots[r], reps[r], errs[r] = core.DistRun(ctx, cw.plans[r], cls[r], cw.q, opts)
		}(r)
	}
	wg.Wait()
	return pots[0], reps, errs
}

// sumTransport adds up the transport counters of every rank that finished.
func sumTransport(reps []core.ExecReport) amt.TransportStats {
	var s amt.TransportStats
	for _, rep := range reps {
		ts := rep.Runtime.Transport
		s.Sent += ts.Sent
		s.Retried += ts.Retried
		s.Acked += ts.Acked
		s.DeadlineExceeded += ts.DeadlineExceeded
		s.Delivered += ts.Delivered
		s.Dropped += ts.Dropped
		s.Duplicated += ts.Duplicated
	}
	return s
}

type chaosProfile struct {
	name  string
	fault amt.FaultProfile
	// acceptance marks the gating profile: drop=10%, dup=10%, reorder on,
	// one paused rank — it must observe at least one retry and one duplicate.
	acceptance bool
}

func chaosProfiles() []chaosProfile {
	return []chaosProfile{
		{name: "drop10", fault: amt.FaultProfile{Drop: 0.10}},
		{name: "dup10", fault: amt.FaultProfile{Duplicate: 0.10}},
		{name: "reorder", fault: amt.FaultProfile{Reorder: true, Delay: 200 * time.Microsecond}},
		{name: "slowrank", fault: amt.FaultProfile{SlowRank: 1, SlowDelay: 3 * time.Millisecond}},
		{name: "chaos", acceptance: true, fault: amt.FaultProfile{
			Drop: 0.10, Duplicate: 0.10,
			Reorder: true, ReorderJitter: time.Millisecond,
			SlowRank: 1, SlowDelay: 3 * time.Millisecond,
		}},
	}
}

// chaosDelivery: the retry clock is tuned to the profiles' delay scale —
// base backoff above one slow-rank round trip would hide spurious retries,
// but spurious retransmits are harmless (the applied bits drop their
// edges), so a snappy base keeps the harness fast. The cap is a full second so the backoff keeps doubling
// when an instrumented receiver decodes slower than the sender retransmits.
func chaosDelivery() amt.DeliveryConfig {
	return amt.DeliveryConfig{
		RetryBase: 4 * time.Millisecond,
		RetryMax:  time.Second,
		Deadline:  120 * time.Second,
	}
}

// TestChaosProfiles is the chaos harness entry point.
func TestChaosProfiles(t *testing.T) {
	profiles := chaosProfiles()
	if testing.Short() || chaosRace {
		// Short/instrumented runs keep only the acceptance profile (which
		// subsumes every fault class) across all four workloads.
		var keep []chaosProfile
		for _, pf := range profiles {
			if pf.acceptance {
				keep = append(keep, pf)
			}
		}
		profiles = keep
	}

	for _, wl := range chaosWorkloads() {
		wl := wl
		t.Run(wl.name, func(t *testing.T) {
			cw := newChaosWorld(t, wl)
			for _, pf := range profiles {
				pf := pf
				t.Run(pf.name, func(t *testing.T) {
					got, reps, errs := cw.run(t, &pf.fault, nil)
					for r, err := range errs {
						if err != nil {
							t.Fatalf("%s under %s: rank %d: %v", wl.name, pf.name, r, err)
						}
					}
					assertChaosClose(t, got, cw.want)

					ts := sumTransport(reps)
					t.Logf("%s/%s: %+v", wl.name, pf.name, ts)
					if ts.DeadlineExceeded != 0 {
						t.Errorf("%d parcels exceeded the delivery deadline", ts.DeadlineExceeded)
					}
					if ts.Delivered < ts.Sent {
						t.Errorf("delivered %d copies of %d parcels", ts.Delivered, ts.Sent)
					}
					if pf.acceptance {
						if ts.Retried < 1 {
							t.Error("acceptance profile observed no retry")
						}
						if ts.Dropped < 1 || ts.Duplicated < 1 {
							t.Errorf("wire injected dropped=%d duplicated=%d, want both >= 1",
								ts.Dropped, ts.Duplicated)
						}
					}
				})
			}
		})
	}
}

// assertChaosClose gates the faulted potentials against the sequential
// evaluation at 1e-12 relative to the largest potential magnitude — only
// floating-point reassociation from input-arrival order may differ, never a
// lost or double-applied edge (either would blow past the gate by many
// orders).
func assertChaosClose(t *testing.T, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d potentials, want %d", len(got), len(want))
	}
	var den float64
	for _, w := range want {
		if m := math.Abs(w); m > den {
			den = m
		}
	}
	worst := 0.0
	worstAt := -1
	for i := range got {
		if d := math.Abs(got[i]-want[i]) / den; d > worst {
			worst, worstAt = d, i
		}
	}
	if worst > chaosTol {
		t.Fatalf("potential %d differs by %.3e relative (gate %.0e): %v vs %v",
			worstAt, worst, chaosTol, got[worstAt], want[worstAt])
	}
}
