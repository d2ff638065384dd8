package core

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/dag"
	"repro/internal/geom"
	"repro/internal/kernel"
	"repro/internal/points"
	"repro/internal/trace"
)

// The near field belongs to its target leaf: under every AMT executor an
// S->T edge is applied by the one near task of the leaf it ends in, on the
// leaf's home, and by nothing else — no source node walks it, no parcel
// carries it.

// nearPlan is the cube fixture of the tests below, and its charges.
func nearPlan(t *testing.T, n int) (*Plan, []float64) {
	t.Helper()
	if raceEnabled {
		n /= 2
	}
	sp := points.Generate(points.Cube, n, 1)
	tp := points.Generate(points.Cube, n, 2)
	plan, err := NewPlan(sp, tp, kernel.NewLaplace(kernel.OrderForDigits(3)), Options{Method: dag.Advanced, Threshold: 40})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.batches.P2P) < 8 || len(plan.batches.P2P) != len(plan.Target.Leaves) {
		t.Fatalf("%d near lists for %d target leaves", len(plan.batches.P2P), len(plan.Target.Leaves))
	}
	return plan, points.Charges(n, 3)
}

// s2tEvents splits a trace's S->T events into the ones with a width (a near
// task records its sweep on its first member edge) and the zero-width
// markers of the other member edges.
func s2tEvents(events []trace.Event) (wide, markers []trace.Event) {
	for _, ev := range events {
		switch {
		case ev.Class != uint8(dag.OpS2T):
		case ev.End > ev.Start:
			wide = append(wide, ev)
		default:
			markers = append(markers, ev)
		}
	}
	return wide, markers
}

// One near task per target leaf whatever the run computes: a gradient run
// (which used to apply its near field edge by edge, one lock and one S2TGrad
// call each) and a potential run trace exactly one S->T event of nonzero
// width per target leaf and one marker for every other member edge, at
// 1e-12 of the sequential walker (gradients 1e-9, the gate of
// TestGradientParallelMatchesSequential).
func TestNearFieldIsOneTaskPerTargetLeaf(t *testing.T) {
	for _, c := range []struct {
		name     string
		gradient bool
	}{
		{"gradient run", true},
		{"potential run", false},
	} {
		plan, q := nearPlan(t, 4000)
		tr := trace.New(2)
		got, rep, err := plan.Evaluate(q, ExecOptions{Workers: 2, Gradient: c.gradient, Tracer: tr})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if c.gradient {
			want, wantGrad, err := plan.EvaluateSequentialGrad(q)
			if err != nil {
				t.Fatal(err)
			}
			assertSame(t, got, want, 1e-12)
			assertSameGrad(t, rep.Gradients, wantGrad, 1e-9)
		} else {
			want, err := plan.EvaluateSequential(q)
			if err != nil {
				t.Fatal(err)
			}
			assertSame(t, got, want, 1e-12)
		}
		wide, markers := s2tEvents(tr.Snapshot())
		leaves, edges := len(plan.batches.P2P), int(plan.Graph.EdgeCount[dag.OpS2T])
		if len(wide) != leaves || len(wide)+len(markers) != edges {
			t.Errorf("%s: %d S->T events of nonzero width and %d markers; want one per target leaf (%d) and one event per edge (%d)",
				c.name, len(wide), len(markers), leaves, edges)
		}
	}
}

// nearSpy is one rank's kernel that records, by the first target point,
// which target leaves a near task swept on its rank.
type nearSpy struct {
	kernel.Kernel
	mu    sync.Mutex
	swept map[geom.Point]int
}

func (k *nearSpy) P2P(chunks []kernel.P2PChunk, tpts []geom.Point, pot []float64) {
	k.mu.Lock()
	k.swept[tpts[0]]++
	k.mu.Unlock()
	k.Kernel.P2P(chunks, tpts, pot)
}

// Every near task runs on its target's home rank: over three ranks, the
// target leaves whose near lists a rank sweeps are exactly the leaves the
// placement homes there. (A batch used to run wherever its last source
// happened to fire.)
func TestNearTasksRunOnTheTargetsHome(t *testing.T) {
	const world = 3
	n := 4000
	if raceEnabled {
		n /= 2
	}
	sp := points.Generate(points.Cube, n, 1)
	tp := points.Generate(points.Cube, n, 2)
	inner := kernel.NewLaplace(kernel.OrderForDigits(3))
	dw := &distWorld{t: t, q: points.Charges(n, 3)}
	spies := make([]*nearSpy, world)
	for r := range spies {
		spies[r] = &nearSpy{Kernel: inner, swept: map[geom.Point]int{}}
		plan, err := NewPlan(sp, tp, spies[r], Options{Method: dag.Advanced, Threshold: 40})
		if err != nil {
			t.Fatal(err)
		}
		dw.plans = append(dw.plans, plan)
	}
	plan := dw.plans[0]
	var err error
	if dw.want, err = plan.EvaluateSequential(dw.q); err != nil {
		t.Fatal(err)
	}
	homes := plan.place(survivors(world, nil))
	home := map[geom.Point]int32{}
	var wantLeaves [world]int
	for _, pb := range plan.batches.P2P {
		home[plan.Target.Pts[plan.Graph.Nodes[pb.Target].Box.Lo]] = homes[pb.Target]
		wantLeaves[homes[pb.Target]]++
	}
	if slices.Min(wantLeaves[:]) == 0 {
		t.Fatalf("fixture: near lists per home rank %v", wantLeaves)
	}

	pots, _, errs := dw.run(distCtx(t), distClusters(t, world), distOpts)
	assertSurvivorsOK(t, errs)
	assertSame(t, pots, dw.want, 1e-12)
	var gotLeaves [world]int
	for r, k := range spies {
		for leaf := range k.swept {
			h, ok := home[leaf]
			if !ok {
				t.Fatalf("rank %d swept a near list into a point that starts no target leaf", r)
			}
			if int(h) != r {
				t.Errorf("rank %d swept the near list of a target leaf homed on rank %d", r, h)
			}
			gotLeaves[r]++
		}
	}
	if gotLeaves != wantLeaves {
		t.Errorf("target leaves swept per rank %v, want %v by the targets' homes", gotLeaves, wantLeaves)
	}
}

// No frame leaves an S node for the near field. Two ranks over unix sockets:
// the application frames of a fault-free run are one parcel per target node
// the worker homes (the gather) and one per (fired node, distinct remote
// home among its out edges other than S->T) — counted here from the plan and
// the placement. An S node whose only remote edges are S->T sends nothing
// (it used to send a parcel of edge indexes and no payload).
func TestDistRunSendsNoNearFieldParcels(t *testing.T) {
	const world = 2
	dw := newDistWorld(t, world, 4000)
	plan := dw.plans[0]
	homes := plan.place(survivors(world, nil))
	parcels, gathers, nearOnly := 0, 0, 0
	for i := range plan.Graph.Nodes {
		n := &plan.Graph.Nodes[i]
		if n.Kind == dag.NodeT && homes[i] != 0 {
			gathers++
		}
		var far, near []int32
		for _, e := range n.Out {
			dest := homes[e.To]
			switch {
			case dest == homes[i]:
			case e.Op == dag.OpS2T:
				near = append(near, dest)
			case !slices.Contains(far, dest):
				far = append(far, dest)
			}
		}
		parcels += len(far)
		if len(far) == 0 && len(near) > 0 {
			nearOnly++
		}
	}
	if nearOnly == 0 {
		t.Fatal("fixture: no S node has a near list on the other rank")
	}
	pots, reps, errs := dw.run(distCtx(t), distClusters(t, world), distOpts)
	assertSurvivorsOK(t, errs)
	assertSame(t, pots, dw.want, 1e-12)
	var sent int64
	for _, rep := range reps {
		sent += rep.Runtime.Transport.Sent
	}
	if want := int64(parcels + gathers); sent != want {
		t.Errorf("%d application frames sent, want %d: %d parcels, %d target nodes gathered from workers (%d S nodes with remote near lists only must send none)",
			sent, want, parcels, gathers, nearOnly)
	}
}

// A rank death is recovered by re-running the job on the survivors, whose
// placement homes the dead rank's target leaves elsewhere: their near tasks
// run there, and nothing replays an S->T edge. On the usual fixture the
// re-run recomputes the far field as well; on a level-1 plan — S->T edges
// and nothing else, the shape small requests are served with — the victim
// dies having fired its S nodes and computed nothing, and the survivor's
// re-run sends no parcel at all while every potential, each one the near
// field of a target applied exactly once, matches at 1e-12.
func TestCrashRecoveryRerunsNearTasks(t *testing.T) {
	const victim = 1
	// leavesMove checks the fixture: the victim homes target leaves in the
	// first run, and the re-run's placement over the survivors none.
	leavesMove := func(t *testing.T, plan *Plan, world int) {
		first := plan.place(survivors(world, nil))
		again := plan.place(survivors(world, []int{victim}))
		lost := 0
		for _, pb := range plan.batches.P2P {
			if again[pb.Target] == victim {
				t.Fatalf("the re-run homes target leaf %d on the dead rank", pb.Target)
			}
			if first[pb.Target] == victim {
				lost++
			}
		}
		if lost == 0 {
			t.Fatal("fixture: the victim homes no target leaf")
		}
	}
	t.Run("far field replayed", func(t *testing.T) {
		const world = 4
		dw := newDistWorld(t, world, 3000)
		leavesMove(t, dw.plans[0], world)
		cls := distClusters(t, world)
		_, _, errs := dw.run(distCtx(t), cls, func(r int) ExecOptions {
			o := distOpts(r)
			if r == victim {
				o.OnProgress = dieAt(cls[r], 0.5)
			}
			return o
		})
		pots, _ := dw.rerun(t, cls, errs, victim)
		assertSame(t, pots, dw.want, 1e-12)
	})
	t.Run("near field only", func(t *testing.T) {
		const world, n = 2, 800
		sp := points.Generate(points.Cube, n, 1)
		tp := points.Generate(points.Cube, n, 2)
		dw := &distWorld{t: t, q: points.Charges(n, 3)}
		k := kernel.NewLaplace(4)
		for r := 0; r < world; r++ {
			plan, err := NewPlan(sp, tp, k, Options{Threshold: n / 4})
			if err != nil {
				t.Fatal(err)
			}
			dw.plans = append(dw.plans, plan)
		}
		plan := dw.plans[0]
		if s2t := plan.Graph.EdgeCount[dag.OpS2T]; s2t == 0 || s2t != plan.Graph.NumEdges() {
			t.Fatalf("fixture: %d of %d edges are S->T", s2t, plan.Graph.NumEdges())
		}
		leavesMove(t, plan, world)
		var err error
		if dw.want, err = plan.EvaluateSequential(dw.q); err != nil {
			t.Fatal(err)
		}
		cls := distClusters(t, world)
		_, _, errs := dw.run(distCtx(t), cls, func(r int) ExecOptions {
			o := distOpts(r)
			if r == victim {
				// One worker pops the roots before any near task (seedRoots):
				// the victim is gone before it has computed a potential.
				o.Workers, o.OnProgress = 1, dieAt(cls[r], 0.5)
			}
			return o
		})
		pots, reps := dw.rerun(t, cls, errs, victim)
		assertSame(t, pots, dw.want, 1e-12)
		if sent := reps[0].Runtime.ParcelsSent; sent != 0 {
			t.Errorf("the survivor's re-run sent %d parcels, want none", sent)
		}
	})
}

// The near task's contract under a fabric, on rank 0 of a two-rank world
// with no runtime running (the task is called directly): it applies its
// leaf's whole list, once, and counts the target down by it. It is seeded
// once per run, on its leaf's home (seedRoots), so it needs no fence.
func TestFabricNearTaskContract(t *testing.T) {
	dw := newDistWorld(t, 2, 600)
	cls := distClusters(t, 2)
	st := dw.plans[0].newState(false)
	ex, _ := rankExecutor(t, st, cls[0])
	st.reset(dw.q)

	lists := st.p.batches.P2P
	pi := slices.IndexFunc(lists, func(pb dag.P2PBatch) bool { return ex.hosts(pb.Target) })
	if pi < 0 || !slices.ContainsFunc(lists, func(pb dag.P2PBatch) bool { return !ex.hosts(pb.Target) }) {
		t.Fatal("fixture: near lists are not homed on both ranks")
	}
	// want: the leaf's near field, edge by edge through the kernel.
	pb := lists[pi]
	tb := ex.g.Nodes[pb.Target].Box
	want := make([]float64, tb.Hi-tb.Lo)
	for _, be := range pb.Edges {
		sb := ex.g.Nodes[be.From].Box
		st.p.Kernel.S2T(st.srcPts(sb), st.q[sb.Lo:sb.Hi], st.tgtPts(tb), want)
	}
	ex.runNear(nil, int32(pi))
	assertSame(t, st.pot[tb.Lo:tb.Hi], want, 1e-12)
	if got, want := ex.remaining[pb.Target].Load(), ex.g.Nodes[pb.Target].In-int32(len(pb.Edges)); got != want {
		t.Errorf("target %d has %d inputs outstanding after its near task, want %d", pb.Target, got, want)
	}
}
