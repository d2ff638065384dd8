package core

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/amt"
)

// A standing cluster serves several jobs back to back (the serve pool's
// shape), and a rank that died between jobs is excluded up front by the next
// job's dead-rank base: the survivors place nothing on the corpse, address
// no parcel to it, and still hit the 1e-12 gate.
func TestDistRunStandingClusterPreDead(t *testing.T) {
	const world = 3
	const victim = world - 1
	dw := newDistWorld(t, world, 1500)
	cls := distClusters(t, world)
	for _, cl := range cls {
		if err := cl.Start(); err != nil {
			t.Fatal(err)
		}
	}

	// Two warm jobs on the full world: the second reuses every socket the
	// first set up. Each has its own wire generation: a retransmitted copy
	// still in flight when its run ends must be fenced, not fed to the next
	// run's fresh sequence filter. And each run reports its own traffic, on
	// every rank, although the wire's counters run on.
	_, first := dw.runJob(t, cls)
	pots, second := dw.runJob(t, cls)
	assertSame(t, pots, dw.want, 1e-12)
	for r := range second {
		a, b := first[r].Runtime.Transport, second[r].Runtime.Transport
		if b.BytesOut == 0 || b.BytesOut > a.BytesOut*3/2 || b.WireMessages > a.WireMessages*3/2 {
			t.Errorf("rank %d: the second of two like runs reports %d bytes in %d messages, the first %d in %d", r, b.BytesOut, b.WireMessages, a.BytesOut, a.WireMessages)
		}
	}

	// The victim dies between jobs; every survivor records the verdict.
	cls[victim].Close()
	cls[victim] = nil
	for _, cl := range cls[:victim] {
		awaitEvent(t, cl, amt.EventDead, 0)
	}

	// The next job is placed against the shrunken membership — the same base
	// on every survivor, a fresh generation fencing any straggler frames —
	// and must still match.
	jobs := startJob(t, cls)
	for r, job := range jobs[:victim] {
		if !slices.Equal(job.DeadOrder, []int{victim}) {
			t.Fatalf("rank %d places the job against dead ranks %v, want [%d]", r, job.DeadOrder, victim)
		}
	}
	pots, reps, errs := dw.run(distCtx(t), cls, func(r int) DistOptions {
		o := distOpts(r)
		o.Job = jobs[r]
		return o
	})
	jobs[0].End()
	assertSurvivorsOK(t, errs)
	assertSame(t, pots, dw.want, 1e-12)
	for r, rep := range reps[:victim] {
		if sv := rep.Runtime.Transport.Severed; sv != 0 {
			t.Errorf("rank %d addressed %d parcels to the dead rank", r, sv)
		}
	}
}

// Verdicts that precede a run: a job's base lists its dead ranks in verdict
// order, and the order does not matter — bases [3 1] and [1 3] give every
// survivor the same placement, with nothing on a dead rank. A one-shot run
// has no base: the verdicts reach it through the log, replayed from its
// head, and the first of them fails the run with the loss of that rank.
func TestDistRunReplaysEarlierVerdictsInLogOrder(t *testing.T) {
	const world = 4
	dw := newDistWorld(t, world, 1500)
	cls := distClusters(t, world)
	var homes [][]int32
	for _, r := range []int{0, 2} {
		for _, base := range [][]int{{3, 1}, {1, 3}} {
			h := dw.plans[r].place(survivors(world, base))
			if slices.ContainsFunc(h, func(home int32) bool { return home == 1 || home == 3 }) {
				t.Errorf("rank %d, base %v: nodes placed on a dead rank", r, base)
			}
			homes = append(homes, h)
		}
	}
	for i := range homes[1:] {
		if !slices.Equal(homes[i+1], homes[0]) {
			t.Fatalf("placement %d differs from placement 0: the order of the dead ranks changed it", i+1)
		}
	}

	for _, cl := range cls {
		if err := cl.Start(); err != nil {
			t.Fatal(err)
		}
	}
	// False verdicts: both suspects are fenced and stay out of the run.
	cls[0].DeclareDead(3)
	cls[0].DeclareDead(1)
	cls[1], cls[3] = nil, nil
	_, _, errs := dw.run(distCtx(t), cls, distOpts)
	for _, r := range []int{0, 2} {
		var lost *RankLostError
		if !errors.As(errs[r], &lost) || lost.Rank != 3 {
			t.Errorf("rank %d returned %v, want the loss of rank 3, the first verdict in its log", r, errs[r])
		}
	}
}

// A rank that attaches after rank 0 has already failed the run — here on a
// death verdict, with the run-complete signal in the late rank's log before
// it gets there — reads the log from its job instead of evaluating: its run
// failed with the loss of the first rank named dead; it did not finish.
// Rank 0 runs alone first, so the order is deterministic.
func TestDistRunAttachedAfterAFailedRunReportsTheLoss(t *testing.T) {
	const world = 3
	dw := newDistWorld(t, world, 600)
	cls := distClusters(t, world)
	for _, cl := range cls {
		if err := cl.Start(); err != nil {
			t.Fatal(err)
		}
	}
	cls[0].DeclareDead(2)
	_, _, err0 := DistRun(distCtx(t), dw.plans[0], cls[0], dw.q, distOpts(0))
	var lost *RankLostError
	if !errors.As(err0, &lost) || lost.Rank != 2 {
		t.Fatalf("rank 0 returned %v, want the loss of rank 2", err0)
	}
	awaitEvent(t, cls[1], amt.EventRunDone, 0)
	_, _, err1 := DistRun(distCtx(t), dw.plans[1], cls[1], dw.q, distOpts(1))
	if !errors.As(err1, &lost) || lost.Rank != 2 {
		t.Errorf("rank 1, attached after rank 0 ended the run, returned %v, want the loss of rank 2", err1)
	}
}
