package core

import (
	"slices"
	"testing"

	"repro/internal/amt"
)

// A standing cluster serves several jobs back to back (the serve pool's
// shape), and a rank that died between jobs is excluded up front by the next
// job's dead-rank base: the survivors replay the death before the run starts,
// place nothing on the corpse, and still hit the 1e-12 gate.
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
		if got := rep.Recovery.RanksKilled; got != 1 {
			t.Errorf("rank %d replayed %d deaths, want the 1 of the job's base", r, got)
		}
	}
}

// Verdicts that precede a run on a one-shot cluster reach it through the
// log alone — there is no job to carry them as its base: every survivor's
// watcher replays them from the head of its log, one after the other in
// log order, and because failover composition is order-sensitive that is
// what makes the survivors' placements agree.
func TestDistRunReplaysEarlierVerdictsInLogOrder(t *testing.T) {
	const world = 4
	dw := newDistWorld(t, world, 1500)
	cls := distClusters(t, world)
	for _, cl := range cls {
		if err := cl.Start(); err != nil {
			t.Fatal(err)
		}
	}
	// False verdicts: both suspects are fenced and stay out of the run.
	cls[0].DeclareDead(3)
	cls[0].DeclareDead(1)
	cls[1], cls[3] = nil, nil
	pots, reps, errs := dw.run(distCtx(t), cls, distOpts)
	assertSurvivorsOK(t, errs)
	assertSame(t, pots, dw.want, 1e-12)
	for _, r := range []int{0, 2} {
		if got := reps[r].Recovery.RanksKilled; got != 2 {
			t.Errorf("rank %d replayed %d verdicts, want 2", r, got)
		}
	}
}
