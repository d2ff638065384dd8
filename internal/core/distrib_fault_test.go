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
// against the sequential evaluation. A death fails the run on every
// survivor (*RankLostError); the gated potentials are those of the job
// re-run on the survivors, which is the one recovery rule.

// testFault is the acceptance wire profile at unit scale. testDelivery
// starts the retry clock at the harness's delay scale — a spurious
// retransmit installs and applies nothing, so a snappy base only
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
// parcels, and a repeated copy installs and applies nothing.
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
// included, so every parcel — a gathered target's too — reaches the fabric
// at least twice and the parcel install is all that stands between the
// copies and a double-applied edge — with and without a rank dying midway. With a
// death the gated run is the re-run on the survivors, over the same wire:
// three ranks, so that two are left to send each other every frame twice.
func TestEveryFrameTwice(t *testing.T) {
	dw := newDistWorld(t, 3, 2000)
	twice := func(rank int, c *amt.ClusterConfig) {
		c.Fault, c.Delivery = &amt.FaultProfile{Seed: int64(21 + rank), Duplicate: 1}, testDelivery()
	}
	for _, death := range []bool{false, true} {
		world, victim := 2, -1
		if death {
			world, victim = 3, 2
		}
		cls := distClusters(t, world, twice)
		pots, reps, errs := dw.run(distCtx(t), cls, func(r int) ExecOptions {
			o := distOpts(r)
			if r == victim {
				o.OnProgress = dieAt(cls[r], 0.5)
			}
			return o
		})
		if death {
			pots, reps = dw.rerun(t, cls, errs, victim)
		} else {
			assertSurvivorsOK(t, errs)
		}
		assertSame(t, pots, dw.want, 1e-12)
		if ts := sumTransport(reps); ts.Duplicated == 0 || ts.Delivered <= ts.Sent {
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
// one of four ranks drops dead at 25/50/75% of its local progress, every
// survivor fails naming it, and the job re-run on the survivors must match
// the sequential evaluation to 1e-12.
func TestCrashRecoveryMatchesSequential(t *testing.T) {
	const world, victim = 4, 1
	dw := newDistWorld(t, world, 3000)
	for _, at := range []float64{0.25, 0.50, 0.75} {
		cls := distClusters(t, world)
		_, _, errs := dw.run(distCtx(t), cls, func(r int) ExecOptions {
			o := distOpts(r)
			if r == victim {
				o.OnProgress = dieAt(cls[r], at)
			}
			return o
		})
		pots, _ := dw.rerun(t, cls, errs, victim)
		assertSame(t, pots, dw.want, 1e-12)
	}
}

// TestCrashRecoveryWithGradient: the re-run's gradients must match too.
// Gradients are gated at 1e-9 like TestGradientParallelMatchesSequential —
// signed component sums cancel, so parallel reassociation alone already
// exceeds 1e-12 on a fault-free run (potentials, mostly same-signed, stay at
// 1e-12).
func TestCrashRecoveryWithGradient(t *testing.T) {
	const world, victim = 4, 2
	dw := newDistWorld(t, world, 2000)
	wantPot, wantGrad, err := dw.plans[0].EvaluateSequentialGrad(dw.q)
	if err != nil {
		t.Fatal(err)
	}
	cls := distClusters(t, world)
	gradient := func(r int) ExecOptions {
		o := distOpts(r)
		o.Gradient = true
		return o
	}
	_, _, errs := dw.run(distCtx(t), cls, func(r int) ExecOptions {
		o := gradient(r)
		if r == victim {
			o.OnProgress = dieAt(cls[r], 0.5)
		}
		return o
	})
	assertRankLost(t, cls, errs, victim)
	cls[victim] = nil
	pots, reps, errs := dw.job(t, cls, gradient)
	assertSurvivorsOK(t, errs)
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
}

// TestCrashRecoveryDoubleCrash: a second rank dying in the re-run fails it
// too, and the caller re-runs again on the two ranks left, which must still
// match.
func TestCrashRecoveryDoubleCrash(t *testing.T) {
	const world = 4
	dw := newDistWorld(t, world, 2500)
	cls := distClusters(t, world)
	_, _, errs := dw.run(distCtx(t), cls, func(r int) ExecOptions {
		o := distOpts(r)
		if r == 3 {
			o.OnProgress = dieAt(cls[r], 0.3)
		}
		return o
	})
	assertRankLost(t, cls, errs, 3)
	cls[3] = nil
	_, _, errs = dw.job(t, cls, func(r int) ExecOptions {
		o := distOpts(r)
		if r == 1 {
			o.OnProgress = dieAt(cls[r], 0.7)
		}
		return o
	})
	pots, _ := dw.rerun(t, cls, errs, 1)
	assertSame(t, pots, dw.want, 1e-12)
}

// TestCrashRecoveryOverFaultyWire combines the acceptance wire profile with
// a rank death: reliability and the re-run must compose.
func TestCrashRecoveryOverFaultyWire(t *testing.T) {
	const world, victim = 4, 1
	dw := newDistWorld(t, world, 2000)
	cls := distClusters(t, world, faultyWire)
	_, _, errs := dw.run(distCtx(t), cls, func(r int) ExecOptions {
		o := distOpts(r)
		if r == victim {
			o.OnProgress = dieAt(cls[r], 0.5)
		}
		return o
	})
	pots, reps := dw.rerun(t, cls, errs, victim)
	assertSame(t, pots, dw.want, 1e-12)
	if sumTransport(reps).Retried == 0 {
		t.Error("no retries under a 10% drop wire")
	}
}

// TestDetectorOnlyRunMatches: the heartbeat detector is armed on every
// distributed run; without a death it must not change results, and no rank
// may sever a parcel.
func TestDetectorOnlyRunMatches(t *testing.T) {
	const world = 4
	dw := newDistWorld(t, world, 2000)
	pots, reps, errs := dw.run(distCtx(t), distClusters(t, world), distOpts)
	assertSurvivorsOK(t, errs)
	assertSame(t, pots, dw.want, 1e-12)
	for r, rep := range reps {
		if sv := rep.Runtime.Transport.Severed; sv != 0 {
			t.Errorf("rank %d: %d parcels severed without a death", r, sv)
		}
	}
}

// TestCrashRecoveryReuse: a standing cluster stays usable job after job once
// a rank is gone: the re-run and the job after it are placed against the
// shrunk membership, address no parcel to the corpse, and match.
func TestCrashRecoveryReuse(t *testing.T) {
	const world, victim = 4, 2
	dw := newDistWorld(t, world, 1500)
	cls := distClusters(t, world)
	_, _, errs := dw.run(distCtx(t), cls, func(r int) ExecOptions {
		o := distOpts(r)
		if r == victim {
			o.OnProgress = dieAt(cls[r], 0.4)
		}
		return o
	})
	pots, _ := dw.rerun(t, cls, errs, victim)
	assertSame(t, pots, dw.want, 1e-12)
	pots, reps := dw.runJob(t, cls)
	assertSame(t, pots, dw.want, 1e-12)
	for r, rep := range reps {
		if sv := rep.Runtime.Transport.Severed; sv != 0 {
			t.Errorf("rank %d addressed %d parcels to the dead rank", r, sv)
		}
	}
}

// TestAllWorkersDeadRankZeroFinishesAlone: the workers die one job after the
// other, and once every worker is dead the coordinator runs the whole DAG
// alone and must still finish exactly.
func TestAllWorkersDeadRankZeroFinishesAlone(t *testing.T) {
	const world = 3
	dw := newDistWorld(t, world, 1000)
	cls := distClusters(t, world)
	_, _, errs := dw.run(distCtx(t), cls, func(r int) ExecOptions {
		o := distOpts(r)
		if r == 1 {
			o.OnProgress = dieAt(cls[r], 0.2)
		}
		return o
	})
	assertRankLost(t, cls, errs, 1)
	cls[1] = nil
	_, _, errs = dw.job(t, cls, func(r int) ExecOptions {
		o := distOpts(r)
		if r == 2 {
			o.OnProgress = dieAt(cls[r], 0.3)
		}
		return o
	})
	pots, reps := dw.rerun(t, cls, errs, 2)
	assertSame(t, pots, dw.want, 1e-12)
	if sent := reps[0].Runtime.ParcelsSent; sent != 0 {
		t.Errorf("rank 0 alone sent %d parcels", sent)
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
	pots, _, errs := dw.run(distCtx(t), cls, func(r int) ExecOptions {
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
