package core

import (
	"context"
	"math"
	"regexp"
	"testing"
	"time"

	"repro/internal/amt"
)

// Wire faults and rank deaths on the distributed path: every test here runs
// real ranks over unix sockets and gates rank 0's potentials at 1e-12
// against the sequential evaluation.

// testFault is the acceptance wire profile at unit scale. testDelivery
// starts the retry clock at the harness's delay scale — a spurious
// retransmit's edges find their applied bits set, so a snappy base only
// makes the tests fast — but lets the
// backoff double up to a second: under -race the receivers decode slower
// than a 64ms-capped sender retransmits, and a flat cap never relieves them.
func testFault(rank int) *amt.FaultProfile {
	return &amt.FaultProfile{Seed: int64(11 + rank), Drop: 0.10, Duplicate: 0.10, Reorder: true}
}

func testDelivery() amt.DeliveryConfig {
	return amt.DeliveryConfig{RetryBase: 4 * time.Millisecond, RetryMax: time.Second, Deadline: 120 * time.Second}
}

// faultyWire puts every rank on the acceptance profile.
func faultyWire(rank int, c *amt.ClusterConfig) {
	c.Fault, c.Delivery = testFault(rank), testDelivery()
}

// sumTransport adds up the delivery counters of every rank's report.
func sumTransport(reps []ExecReport) amt.TransportStats {
	var s amt.TransportStats
	for _, rep := range reps {
		ts := rep.Runtime.Transport
		s.Retried += ts.Retried
		s.DeadlineExceeded += ts.DeadlineExceeded
		s.Sent += ts.Sent
		s.Delivered += ts.Delivered
		s.Dropped += ts.Dropped
		s.Duplicated += ts.Duplicated
	}
	return s
}

// TestFaultInjectedEvaluationMatches: a lossy, duplicating, reordering wire
// must not change the computed potentials — the delivery layer retries lost
// parcels, and the applied bits drop the edges of every repeated copy.
func TestFaultInjectedEvaluationMatches(t *testing.T) {
	const world = 4
	dw := newDistWorld(t, world, 2500)
	pots, reps, errs := dw.run(distCtx(t), distClusters(t, world, faultyWire), distOpts)
	assertSurvivorsOK(t, errs)
	assertSame(t, pots, dw.want, 1e-12)
	ts := sumTransport(reps)
	if ts.Dropped == 0 || ts.Duplicated == 0 {
		t.Errorf("fault profile injected nothing: %+v", ts)
	}
	if ts.Retried == 0 {
		t.Error("no retries despite 10% drop")
	}
	if ts.Delivered < ts.Sent {
		t.Errorf("delivered %d copies of %d parcels", ts.Delivered, ts.Sent)
	}
	if ts.DeadlineExceeded != 0 {
		t.Errorf("%d parcels exceeded the deadline", ts.DeadlineExceeded)
	}
}

// TestEveryFrameTwice: a wire that delivers every frame twice, acks
// included, so every parcel and every result report reaches the fabric at
// least twice and the applied bits are all that stands between the copies
// and a double-applied edge — with and without a rank dying midway.
func TestEveryFrameTwice(t *testing.T) {
	const world, victim = 2, 1
	dw := newDistWorld(t, world, 2000)
	twice := func(rank int, c *amt.ClusterConfig) {
		c.Fault, c.Delivery = &amt.FaultProfile{Seed: int64(21 + rank), Duplicate: 1}, testDelivery()
	}
	for _, death := range []bool{false, true} {
		cls := distClusters(t, world, twice)
		pots, reps, errs := dw.run(distCtx(t), cls, func(r int) DistOptions {
			o := distOpts(r)
			if death && r == victim {
				o.OnProgress = dieAt(cls[r], 0.5)
			}
			return o
		})
		var victims []int
		if death {
			victims = append(victims, victim)
		}
		assertSurvivorsOK(t, errs, victims...)
		assertSame(t, pots, dw.want, 1e-12)
		if ts := sumTransport(reps); ts.Duplicated == 0 || (!death && ts.Delivered <= ts.Sent) {
			t.Errorf("death %v: duplicated %d, delivered %d copies of %d parcels; want every frame twice",
				death, ts.Duplicated, ts.Delivered, ts.Sent)
		}
	}
}

// TestDeliveryDeadlineSurfacesInError: when parcels are abandoned the
// evaluation must fail loudly and name the transport as the cause.
func TestDeliveryDeadlineSurfacesInError(t *testing.T) {
	dw := newDistWorld(t, 2, 1000)
	cls := distClusters(t, 2, func(_ int, c *amt.ClusterConfig) {
		c.Fault = &amt.FaultProfile{Seed: 3, Drop: 1.0}
		c.Delivery = amt.DeliveryConfig{
			RetryBase: time.Millisecond, RetryMax: 4 * time.Millisecond,
			Deadline: 50 * time.Millisecond,
		}
	})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_, _, errs := dw.run(ctx, cls, distOpts)
	if errs[0] == nil {
		t.Fatal("evaluation over a fully lossy wire reported success")
	}
	if !regexp.MustCompile(`expired=[1-9]`).MatchString(errs[0].Error()) {
		t.Errorf("error does not count the parcels that exceeded the delivery deadline: %v", errs[0])
	}
}

// TestCrashRecoveryMatchesSequential is the recovery gate at unit scale:
// one of four ranks drops dead at 25/50/75% of its local progress and the
// recovered potentials must match the sequential evaluation to 1e-12.
func TestCrashRecoveryMatchesSequential(t *testing.T) {
	const world, victim = 4, 1
	dw := newDistWorld(t, world, 3000)
	for _, at := range []float64{0.25, 0.50, 0.75} {
		cls := distClusters(t, world)
		pots, reps, errs := dw.run(distCtx(t), cls, func(r int) DistOptions {
			o := distOpts(r)
			if r == victim {
				o.OnProgress = dieAt(cls[r], at)
			}
			return o
		})
		assertSurvivorsOK(t, errs, victim)
		assertSame(t, pots, dw.want, 1e-12)
		var rebuilt int64
		for r, rep := range reps {
			if r != victim && rep.Recovery.RanksKilled != 1 {
				t.Errorf("at %.0f%%: rank %d applied %d deaths, want 1", at*100, r, rep.Recovery.RanksKilled)
			}
			rebuilt += rep.Recovery.NodesRebuilt
		}
		// Every node homed on the corpse is rebuilt by whichever survivor
		// inherits it, however late the death.
		if rebuilt == 0 {
			t.Errorf("at %.0f%%: no nodes rebuilt after a rank death", at*100)
		}
		t.Logf("death at %.0f%%: rank 0 %s", at*100, reps[0].Recovery)
	}
}

// TestCrashRecoveryWithGradient: the rebuilt T nodes must re-zero their
// gradient slices too, or the force output double-counts. Gradients are
// gated at 1e-9 like TestGradientParallelMatchesSequential — signed
// component sums cancel, so parallel reassociation alone already exceeds
// 1e-12 on a fault-free run (potentials, mostly same-signed, stay at 1e-12).
func TestCrashRecoveryWithGradient(t *testing.T) {
	const world, victim = 4, 2
	dw := newDistWorld(t, world, 2000)
	wantPot, wantGrad, err := dw.plans[0].EvaluateSequentialGrad(dw.q)
	if err != nil {
		t.Fatal(err)
	}
	cls := distClusters(t, world)
	pots, reps, errs := dw.run(distCtx(t), cls, func(r int) DistOptions {
		o := distOpts(r)
		o.Gradient = true
		if r == victim {
			o.OnProgress = dieAt(cls[r], 0.5)
		}
		return o
	})
	assertSurvivorsOK(t, errs, victim)
	assertSame(t, pots, wantPot, 1e-12)
	var den float64
	for _, g := range wantGrad {
		for _, c := range []float64{g.X, g.Y, g.Z} {
			if m := math.Abs(c); m > den {
				den = m
			}
		}
	}
	got := reps[0].Gradients
	for i := range wantGrad {
		dx := math.Abs(got[i].X - wantGrad[i].X)
		dy := math.Abs(got[i].Y - wantGrad[i].Y)
		dz := math.Abs(got[i].Z - wantGrad[i].Z)
		if (dx+dy+dz)/den > 1e-9 {
			t.Fatalf("gradient %d differs: %v vs %v", i, got[i], wantGrad[i])
		}
	}
	t.Logf("recovery: %s", reps[0].Recovery)
}

// TestCrashRecoveryDoubleCrash: two ranks dying at different progress
// points must still recover exactly — including re-deriving state a
// first-death survivor inherited and then lost to the second death.
func TestCrashRecoveryDoubleCrash(t *testing.T) {
	const world = 4
	dw := newDistWorld(t, world, 2500)
	cls := distClusters(t, world)
	pots, reps, errs := dw.run(distCtx(t), cls, func(r int) DistOptions {
		o := distOpts(r)
		switch r {
		case 3:
			o.OnProgress = dieAt(cls[r], 0.3)
		case 1:
			o.OnProgress = dieAt(cls[r], 0.7)
		}
		return o
	})
	assertSurvivorsOK(t, errs, 3, 1)
	assertSame(t, pots, dw.want, 1e-12)
	if got := reps[0].Recovery.RanksKilled; got != 2 {
		t.Errorf("RanksKilled = %d, want 2", got)
	}
}

// TestCrashRecoveryOverFaultyWire combines the acceptance wire profile with
// a rank death: reliability and recovery must compose.
func TestCrashRecoveryOverFaultyWire(t *testing.T) {
	const world, victim = 4, 1
	dw := newDistWorld(t, world, 2000)
	cls := distClusters(t, world, faultyWire)
	pots, reps, errs := dw.run(distCtx(t), cls, func(r int) DistOptions {
		o := distOpts(r)
		if r == victim {
			o.OnProgress = dieAt(cls[r], 0.5)
		}
		return o
	})
	assertSurvivorsOK(t, errs, victim)
	assertSame(t, pots, dw.want, 1e-12)
	t.Logf("recovery: %s", reps[0].Recovery)
	if sumTransport(reps).Retried == 0 {
		t.Error("no retries under a 10% drop wire")
	}
}

// TestDetectorOnlyRunMatches: the heartbeat detector is armed on every
// distributed run; without a death it must not change results, and every
// rank must report zero recovery activity.
func TestDetectorOnlyRunMatches(t *testing.T) {
	const world = 4
	dw := newDistWorld(t, world, 2000)
	pots, reps, errs := dw.run(distCtx(t), distClusters(t, world), distOpts)
	assertSurvivorsOK(t, errs)
	assertSame(t, pots, dw.want, 1e-12)
	for r, rep := range reps {
		if rep.Recovery != (RecoveryStats{}) {
			t.Errorf("rank %d: idle detector reported recovery work: %s", r, rep.Recovery)
		}
		if sv := rep.Runtime.Transport.Severed; sv != 0 {
			t.Errorf("rank %d: %d parcels severed without a death", r, sv)
		}
	}
}

// TestCrashRecoveryReuse: a standing cluster must stay usable after a run
// that lost a rank mid-flight — the next job is placed against the shrunken
// membership (its dead-rank base replayed, a fresh generation fencing the
// dead run's stragglers) and still matches.
func TestCrashRecoveryReuse(t *testing.T) {
	const world, victim = 4, 2
	dw := newDistWorld(t, world, 1500)
	cls := distClusters(t, world)
	pots, _, errs := dw.run(distCtx(t), cls, func(r int) DistOptions {
		o := distOpts(r)
		if r == victim {
			o.OnProgress = dieAt(cls[r], 0.4)
		}
		return o
	})
	assertSurvivorsOK(t, errs, victim)
	assertSame(t, pots, dw.want, 1e-12)

	cls[victim] = nil
	pots, reps := dw.runJob(t, cls)
	assertSame(t, pots, dw.want, 1e-12)
	if got := reps[0].Recovery.RanksKilled; got != 1 {
		t.Errorf("second run replayed %d deaths, want the 1 rank of the job's base", got)
	}
}

// TestAllWorkersDeadRankZeroFinishesAlone: with every worker rank dead the
// coordinator inherits the whole DAG and must still finish exactly.
func TestAllWorkersDeadRankZeroFinishesAlone(t *testing.T) {
	const world = 3
	dw := newDistWorld(t, world, 1000)
	cls := distClusters(t, world)
	pots, reps, errs := dw.run(distCtx(t), cls, func(r int) DistOptions {
		o := distOpts(r)
		switch r {
		case 1:
			o.OnProgress = dieAt(cls[r], 0.2)
		case 2:
			o.OnProgress = dieAt(cls[r], 0.3)
		}
		return o
	})
	assertSurvivorsOK(t, errs, 1, 2)
	assertSame(t, pots, dw.want, 1e-12)
	if got := reps[0].Recovery.RanksKilled; got != 2 {
		t.Errorf("RanksKilled = %d, want 2", got)
	}
}

// TestAllRanksDeadFails: with every rank gone — the coordinator included —
// each DistRun must surface an error at once instead of hanging to its
// timeout or fabricating results.
func TestAllRanksDeadFails(t *testing.T) {
	const world = 3
	dw := newDistWorld(t, world, 1000)
	cls := distClusters(t, world)
	start := time.Now()
	pots, _, errs := dw.run(distCtx(t), cls, func(r int) DistOptions {
		o := distOpts(r)
		o.OnProgress = dieAt(cls[r], 0.3)
		return o
	})
	for r, err := range errs {
		if err == nil {
			t.Errorf("rank %d reported success after every rank died", r)
		}
	}
	if pots != nil {
		t.Error("rank 0 returned potentials from a run nobody finished")
	}
	if el := time.Since(start); el > 10*time.Second {
		t.Errorf("dead ranks took %v to give up", el)
	}
}
