package core

import (
	"slices"
	"testing"
	"time"

	"repro/internal/dag"
	"repro/internal/kernel"
	"repro/internal/points"
	"repro/internal/trace"
)

// The near field belongs to its target leaf: under every AMT executor an
// S->T edge is applied by the one near task of the leaf it ends in, on the
// leaf's home, and by nothing else — no source node walks it, no parcel
// carries it, no recovery replays it.

// nearPlan is the cube fixture of the tests below, with the sequential
// potentials and (for a gradient-capable kernel) gradients.
func nearPlan(t *testing.T, k kernel.Kernel, n int) (*Plan, []float64) {
	t.Helper()
	if raceEnabled {
		n /= 2
	}
	sp := points.Generate(points.Cube, n, 1)
	tp := points.Generate(points.Cube, n, 2)
	plan, err := NewPlan(sp, tp, k, Options{Method: dag.Advanced, Threshold: 40})
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

// One near task per target leaf whatever the run computes and whatever the
// kernel offers: a gradient run (which used to apply its near field edge by
// edge, one lock and one S2TGrad call each) and a kernel that hides its
// batched surface (which used to get no near list at all) trace exactly one
// S->T event of nonzero width per target leaf and one marker for every other
// member edge, at 1e-12 of the sequential walker (gradients 1e-9, the gate
// of TestGradientParallelMatchesSequential).
func TestNearFieldIsOneTaskPerTargetLeaf(t *testing.T) {
	p := kernel.OrderForDigits(3)
	for _, c := range []struct {
		name     string
		k        kernel.Kernel
		gradient bool
	}{
		{"gradient run", kernel.NewLaplace(p), true},
		{"kernel without the batched surface", struct{ kernel.Kernel }{kernel.NewLaplace(p)}, false},
	} {
		plan, q := nearPlan(t, c.k, 4000)
		if _, batched := plan.Kernel.(kernel.BatchKernel); batched != c.gradient {
			t.Fatalf("%s: the fixture kernel's batched surface is visible: %v", c.name, batched)
		}
		tr := trace.New(2 * 2)
		got, rep, err := plan.Evaluate(q, ExecOptions{Localities: 2, Workers: 2, Gradient: c.gradient, Tracer: tr})
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

// Every near task runs on its target's home locality: per locality, the
// traced S->T events are the member edges of the near lists homed there. (A
// batch used to run wherever its last source happened to fire.)
func TestNearTasksRunOnTheTargetsHome(t *testing.T) {
	const locs = 3
	plan, q := nearPlan(t, kernel.NewLaplace(kernel.OrderForDigits(3)), 4000)
	tr := trace.New(locs * 2)
	pe, err := plan.NewParallelEvaluation(ExecOptions{Localities: locs, Workers: 2, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := pe.Run(q); err != nil {
		t.Fatal(err)
	}
	var wantTasks, wantEdges, gotTasks, gotEdges [locs]int
	for _, pb := range plan.batches.P2P {
		home := pe.ex.homes[pb.Target].Load()
		wantTasks[home]++
		wantEdges[home] += len(pb.Edges)
	}
	wide, markers := s2tEvents(tr.Snapshot())
	for _, ev := range wide {
		gotTasks[ev.Locality]++
		gotEdges[ev.Locality]++
	}
	for _, ev := range markers {
		gotEdges[ev.Locality]++
	}
	if slices.Min(wantTasks[:]) == 0 {
		t.Fatalf("fixture: near lists per home locality %v", wantTasks)
	}
	if gotTasks != wantTasks || gotEdges != wantEdges {
		t.Errorf("near tasks per locality %v (S->T edges %v), want %v (%v) by the targets' homes", gotTasks, gotEdges, wantTasks, wantEdges)
	}
}

// No frame leaves an S node for the near field. Two ranks over unix sockets:
// the application frames of a fault-free run are the worker's result report
// and one parcel per (fired node, distinct remote
// home among its out edges other than S->T) — counted here from the plan and
// the placement. An S node whose only remote edges are S->T sends nothing
// (it used to send a parcel of edge indexes and no payload).
func TestDistRunSendsNoNearFieldParcels(t *testing.T) {
	const world = 2
	dw := newDistWorld(t, world, 4000)
	plan := dw.plans[0]
	homes, _, _ := plan.place(world)
	parcels, nearOnly := 0, 0
	for i := range plan.Graph.Nodes {
		n := &plan.Graph.Nodes[i]
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
	if want := int64(parcels + (world - 1)); sent != want {
		t.Errorf("%d application frames sent, want %d: %d parcels, %d result report (%d S nodes with remote near lists only must send none)",
			sent, want, parcels, world-1, nearOnly)
	}
}

// A rank death rebuilds the near field by re-running near tasks, never by
// replaying S->T edges. On the usual fixture the survivors' replay count
// stays within the far-field in-edges of the corpse's nodes; on a level-1
// plan — S->T edges and nothing else, the shape small requests are served
// with — the victim dies having fired its S nodes and computed nothing, and
// the survivor replays no edge at all while every potential, each one the
// near field of a rebuilt target applied exactly once, matches at 1e-12.
func TestCrashRecoveryRerunsNearTasks(t *testing.T) {
	const victim = 1
	t.Run("far field replayed", func(t *testing.T) {
		const world = 4
		dw := newDistWorld(t, world, 3000)
		plan := dw.plans[0]
		homes, _, _ := plan.place(world)
		var farIn int64
		for i := range plan.Graph.Nodes {
			for _, e := range plan.Graph.Nodes[i].Out {
				if homes[i] != victim && homes[e.To] == victim && e.Op != dag.OpS2T {
					farIn++
				}
			}
		}
		cls := distClusters(t, world)
		pots, reps, errs := dw.run(distCtx(t), cls, func(r int) DistOptions {
			o := distOpts(r)
			if r == victim {
				o.OnProgress = dieAt(cls[r], 0.5)
			}
			return o
		})
		assertSurvivorsOK(t, errs, victim)
		assertSame(t, pots, dw.want, 1e-12)
		var replayed int64
		for r, rep := range reps {
			if r != victim {
				replayed += rep.Recovery.EdgesReplayed
			}
		}
		if replayed > farIn {
			t.Errorf("%d edges replayed into the corpse's nodes, which have %d in-edges from outside other than S->T", replayed, farIn)
		}
	})
	t.Run("near field only", func(t *testing.T) {
		const world, n = 2, 800
		sp := points.Generate(points.Cube, n, 1)
		tp := points.Generate(points.Cube, n, 2)
		dw := &distWorld{q: points.Charges(n, 3)}
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
		homes, _, _ := plan.place(world)
		var lost int64
		for _, pb := range plan.batches.P2P {
			if homes[pb.Target] == victim {
				lost++
			}
		}
		if lost == 0 {
			t.Fatal("fixture: the victim homes no target leaf")
		}
		var err error
		if dw.want, err = plan.EvaluateSequential(dw.q); err != nil {
			t.Fatal(err)
		}
		cls := distClusters(t, world)
		pots, reps, errs := dw.run(distCtx(t), cls, func(r int) DistOptions {
			o := distOpts(r)
			if r == victim {
				// One worker pops the roots before any near task (seedRoots):
				// the victim is gone before it has computed a potential.
				o.Workers, o.OnProgress = 1, dieAt(cls[r], 0.5)
			}
			return o
		})
		assertSurvivorsOK(t, errs, victim)
		assertSame(t, pots, dw.want, 1e-12)
		rec := reps[0].Recovery
		if rec.RanksKilled != 1 || rec.NodesRebuilt < lost || rec.EdgesReplayed != 0 {
			t.Errorf("recovery %s: want 1 death, at least the %d target leaves rebuilt, no edge replayed", rec, lost)
		}
	})
}

// The near task's contract under a fabric, clause by clause, on rank 0 of a
// two-rank world with no runtime running (the tasks are called directly): it
// does nothing for a leaf homed elsewhere; it applies a leaf's whole list
// once and counts the target down by it; a second run is fenced; it waits
// for a failover in progress; and a failover that rebuilds a leaf here
// clears the fence — even one left set — and the leaf's near field is
// applied, once, into the zeroed potentials. No end-to-end gate can see the
// fences (a live rank keeps its leaves, so the protocol seeds each task
// once): like the claim's source lock, they are pinned here.
func TestFabricNearTaskContract(t *testing.T) {
	dw := newDistWorld(t, 2, 600)
	cls := distClusters(t, 2)
	st, err := dw.plans[0].newState(false)
	if err != nil {
		t.Fatal(err)
	}
	ex := newExecutor(st, 2)
	fb := newFabric(ex, cls[0], distOpts(0).withDefaults())
	st.reset(dw.q)

	// want[pi]: the leaf's near field, edge by edge through the kernel.
	lists := st.p.batches.P2P
	want := make([][]float64, len(lists))
	var mine, foreign []int32
	for pi, pb := range lists {
		tb := ex.g.Nodes[pb.Target].Box
		want[pi] = make([]float64, tb.Hi-tb.Lo)
		for _, be := range pb.Edges {
			sb := ex.g.Nodes[be.From].Box
			st.p.Kernel.S2T(st.srcPts(sb), st.q[sb.Lo:sb.Hi], st.tgtPts(tb), want[pi])
		}
		if ex.hosts(pb.Target) {
			mine = append(mine, int32(pi))
		} else {
			foreign = append(foreign, int32(pi))
		}
	}
	if len(mine) < 2 || len(foreign) == 0 {
		t.Fatalf("fixture: %d near lists homed here, %d elsewhere", len(mine), len(foreign))
	}
	pot := func(pi int32) []float64 {
		tb := ex.g.Nodes[lists[pi].Target].Box
		return st.pot[tb.Lo:tb.Hi]
	}
	applied := func(pi int32) bool {
		t.Helper()
		if slices.Max(pot(pi)) == 0 && slices.Min(pot(pi)) == 0 {
			return false
		}
		assertSame(t, pot(pi), want[pi], 1e-12)
		return true
	}

	if ex.runNear(nil, foreign[0]); applied(foreign[0]) || fb.nearDone[lists[foreign[0]].Target].Load() {
		t.Error("the near task of a leaf homed on the other rank ran here")
	}

	pi, tgt := mine[0], lists[mine[0]].Target
	ex.runNear(nil, pi)
	if !applied(pi) {
		t.Fatal("the near task of a leaf homed here applied nothing")
	}
	if got, want := ex.remaining[tgt].Load(), ex.g.Nodes[tgt].In-int32(len(lists[pi].Edges)); got != want {
		t.Errorf("target %d has %d inputs outstanding after its near task, want %d", tgt, got, want)
	}
	once := slices.Clone(pot(pi))
	if ex.runNear(nil, pi); !slices.Equal(pot(pi), once) || ex.remaining[tgt].Load() < 0 {
		t.Error("a second run of the near task applied the near field again")
	}

	fb.runMu.Lock()
	ran := make(chan struct{})
	go func() {
		defer close(ran)
		ex.runNear(nil, mine[1])
	}()
	select {
	case <-ran:
		t.Error("the near task ran through a failover in progress")
	case <-time.After(50 * time.Millisecond):
	}
	fb.runMu.Unlock()
	if <-ran; !applied(mine[1]) {
		t.Error("the near task did not run once the failover was over")
	}

	fb.nearDone[lists[foreign[0]].Target].Store(true)
	fb.applyDeath(1)
	for _, pi := range foreign {
		if tgt := lists[pi].Target; !ex.hosts(tgt) || fb.nearDone[tgt].Load() || applied(pi) {
			t.Fatalf("leaf %d after the other rank's death: homed here %v, fence %v, potentials nonzero %v",
				tgt, ex.hosts(tgt), fb.nearDone[tgt].Load(), applied(pi))
		}
		if ex.runNear(nil, pi); !applied(pi) {
			t.Errorf("rebuilt leaf %d: near field not applied", lists[pi].Target)
		}
	}
	if !slices.Equal(pot(pi), once) {
		t.Error("a leaf this rank kept was touched by the other rank's failover")
	}
}
