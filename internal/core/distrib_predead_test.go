package core

import (
	"testing"
	"time"
)

// A standing cluster serves several runs back to back (the serve pool's
// shape), and a rank that died between runs is excluded up front via
// PreDead: the survivors replay the death before the next run starts, place
// nothing on the corpse, and still hit the 1e-12 gate.
func TestDistRunStandingClusterPreDead(t *testing.T) {
	const world = 3
	const victim = world - 1
	dw := newDistWorld(t, world, 1500)
	cls := distClusters(t, world)

	// runAll executes one fault-free run on the live ranks of the standing
	// cluster.
	runAll := func(gen uint32, preDead []int) []float64 {
		t.Helper()
		pots, _, errs := dw.run(cls, func(r int) DistOptions {
			o := distOpts(r)
			o.Generation, o.PreDead = gen, preDead
			return o
		})
		assertSurvivorsOK(t, errs)
		return pots
	}

	// Two warm runs on the full world: the second reuses every socket the
	// first set up. Each run gets its own wire generation, as StartJob gives
	// every pool job: a retransmitted copy still in flight when its run ends
	// must be fenced, not fed to the next run's fresh sequence filter.
	assertSame(t, runAll(1, nil), dw.want, 1e-12)
	assertSame(t, runAll(2, nil), dw.want, 1e-12)

	// The victim dies between runs; every survivor records the verdict.
	cls[victim].Close()
	cls[victim] = nil
	deadline := time.Now().Add(10 * time.Second)
	for {
		ok := true
		for r := 0; r < world; r++ {
			if cls[r] != nil && len(cls[r].DeadOrder()) != 1 {
				ok = false
			}
		}
		if ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("survivors never recorded the victim's death verdict")
		}
		time.Sleep(time.Millisecond)
	}
	order := cls[0].DeadOrder()
	if len(order) != 1 || order[0] != victim {
		t.Fatalf("DeadOrder = %v, want [%d]", order, victim)
	}

	// The next run starts from the shrunken membership (PreDead replay, a
	// bumped generation fencing any straggler frames) and must still match.
	assertSame(t, runAll(3, order), dw.want, 1e-12)
}

// Verdicts that precede a run on a one-shot cluster reach it through the
// log alone — there is no job to carry them as PreDead: every survivor's
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
	pots, reps, errs := dw.run(cls, func(r int) DistOptions {
		o := distOpts(r)
		o.Timeout = 20 * time.Second
		return o
	})
	assertSurvivorsOK(t, errs)
	assertSame(t, pots, dw.want, 1e-12)
	for _, r := range []int{0, 2} {
		if got := reps[r].Recovery.RanksKilled; got != 2 {
			t.Errorf("rank %d replayed %d verdicts, want 2", r, got)
		}
	}
}
