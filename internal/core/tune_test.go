package core

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/dag"
	"repro/internal/kernel"
	"repro/internal/points"
	"repro/internal/sim"
	"repro/internal/tree"
)

// The leaf-size tuner, tested without a stopwatch: what it decides, that it
// decides the same thing every time and everywhere, and that it stays out
// of the way when the threshold is given.

func tunedPlan(t *testing.T, d points.Distribution, n, digits int, method dag.Method) *Plan {
	t.Helper()
	return tunedPlanOn(t, kernel.NewLaplace(kernel.OrderForDigits(digits)), d, n, method)
}

func tunedPlanOn(t *testing.T, k kernel.Kernel, d points.Distribution, n int, method dag.Method) *Plan {
	t.Helper()
	sp := points.Generate(d, n, 1)
	tp := points.Generate(d, n, 2)
	plan, err := NewPlan(sp, tp, k, Options{Method: method})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Tuning() == nil {
		t.Fatal("Threshold 0 built a plan without running the tuner")
	}
	return plan
}

// pricedKernel is a built-in kernel that charges a given price per
// near-field pair, whichever pair loop the test machine binds (kernel.Price
// asks for PairNanos): what the tuner decides for it is the same on every
// CPU.
type pricedKernel struct {
	kernel.Kernel
	pairNanos float64
}

func (k pricedKernel) PairNanos() float64 { return k.pairNanos }

// portablePriced prices k's near field as the portable Laplace loop, the
// price the N of the far-field fixtures were chosen at.
func portablePriced(k kernel.Kernel) kernel.Kernel {
	return pricedKernel{k, kernel.PairPrices(kernel.NewLaplace(0))[0]}
}

// The decision table: below the crossover the plan is the level-1 near
// field, the benchmark's 16k cube sits at level 2 with about 250 points per
// leaf on the vector pair loops, and a larger cube goes deeper — at the
// price of every Laplace pair loop, so the table holds on whatever CPU
// builds the plan. At the portable loop's 3.8 ns a pair the 16k cube goes
// to level 3 (about 31 points per leaf): with plane waves sized per accuracy
// (268 terms at three digits, 477 before) its far field is cheap enough, and
// a purego dashmm-bench -real -n 16000 ran it warm in 81–100 ms against
// 125–135 ms at threshold 480, three alternating pairs (cold 250–330 ms
// against 178–205: the second plane-wave level builds its own tables).
func TestTunerDecisionTable(t *testing.T) {
	for _, pair := range kernel.PairPrices(kernel.NewLaplace(0)) {
		tuned := func(n int) *Plan {
			k := pricedKernel{kernel.NewLaplace(kernel.OrderForDigits(3)), pair}
			return tunedPlanOn(t, k, points.Cube, n, dag.Advanced)
		}
		small := tuned(2000)
		if l := small.MaxLevel(); l != 1 {
			t.Errorf("%.1f ns/pair, cube N=2000: level %d (threshold %d), want 1", pair, l, small.Threshold())
		}
		if far := small.PredictedNanos() - small.Predicted()[dag.OpS2T]; far != 0 {
			t.Errorf("%.1f ns/pair, cube N=2000: %.0f ns of far field predicted, want an S→T-only plan", pair, far)
		}

		mid := tuned(16000)
		wantLevel, wantPer := 2, 250.0
		if pair > 3 {
			wantLevel, wantPer = 3, 31
		}
		if l := mid.MaxLevel(); l != wantLevel {
			t.Errorf("%.1f ns/pair, cube N=16000: level %d (threshold %d), want %d", pair, l, mid.Threshold(), wantLevel)
		}
		if per := float64(2*16000) / float64(mid.Leaves()); per < 0.8*wantPer || per > 1.2*wantPer {
			t.Errorf("%.1f ns/pair, cube N=16000: %.0f points per leaf, want about %.0f", pair, per, wantPer)
		}
		if mid.Graph.EdgeCount[dag.OpM2I] == 0 || mid.Graph.EdgeCount[dag.OpI2L] == 0 {
			t.Errorf("%.1f ns/pair, cube N=16000: no plane-wave edges at threshold %d", pair, mid.Threshold())
		}

		if raceEnabled || testing.Short() {
			continue // the 128k ladder prices a 4096-leaf DAG: seconds when instrumented
		}
		large := tuned(128000)
		if l := large.MaxLevel(); l <= 2 {
			t.Errorf("%.1f ns/pair, cube N=128000: level %d (threshold %d), want deeper than 2", pair, l, large.Threshold())
		}
	}
}

// A cheaper pair never buys a finer tree: on the same Yukawa/Basic sphere,
// priced at each Yukawa pair loop from the dearest to the cheapest, the
// chosen threshold never decreases.
func TestTunerCheaperPairNeverFiner(t *testing.T) {
	yukawa := kernel.NewYukawa(kernel.OrderForDigits(3), 4.0)
	prev := 0
	for _, pair := range kernel.PairPrices(yukawa) {
		k := pricedKernel{kernel.NewYukawa(kernel.OrderForDigits(3), 4.0), pair}
		plan := tunedPlanOn(t, k, points.Sphere, 12000, dag.Basic)
		t.Logf("%.1f ns/pair: threshold %d, level %d, %d leaves", pair, plan.Threshold(), plan.MaxLevel(), plan.Leaves())
		if plan.Threshold() < prev {
			t.Errorf("%.1f ns/pair chose threshold %d, finer than the dearer pair's %d", pair, plan.Threshold(), prev)
		}
		prev = plan.Threshold()
	}
}

// The near field is priced by the loop that runs it. At λ = 1e4 every box
// of the sphere has λ·side far above the float32 Yukawa loops' bound on λ′
// (kernel.Price), so the driver runs its blocks on the float64 twin and the
// plan's S→T is priced at the twin's rate, kernel.NewYukawaFloat64's; at
// λ = 0.25 every box, the root included, is within it and the rate is the
// bound loop's. On a CPU without a float32 loop the two rates agree.
func TestTunerPricesTheLoopThatRuns(t *testing.T) {
	p := kernel.OrderForDigits(3)
	for _, c := range []struct {
		lambda, rate float64
	}{
		{1e4, kernel.NewYukawaFloat64(p, 1e4).PairNanos()},
		{0.25, kernel.NewYukawa(p, 0.25).PairNanos()},
	} {
		plan := tunedPlanOn(t, kernel.NewYukawa(p, c.lambda), points.Sphere, 12000, dag.Basic)
		if side := plan.Source.Domain.Side; c.lambda < 1 && c.lambda*side > 1 {
			t.Fatalf("root side %g: λ = %g leaves the root above the bound", side, c.lambda)
		}
		g := plan.Graph
		var pairs float64
		for i := range g.Nodes {
			for _, e := range g.Nodes[i].Out {
				if e.Op == dag.OpS2T {
					pairs += sim.Units(g, &g.Nodes[i], e)
				}
			}
		}
		if got := plan.Predicted()[dag.OpS2T] / pairs; math.Abs(got-c.rate) > 1e-9*c.rate {
			t.Errorf("λ = %g: S→T priced at %.3g ns a pair, want %.3g (threshold %d, level %d)", c.lambda, got, c.rate, plan.Threshold(), plan.MaxLevel())
		}
	}
}

// BenchmarkTunerLadder bounds what leaving Options.Threshold at zero costs
// at plan build: the leaf-size tuner on the benchmark's cube N=16k points
// must stay under 25 ms and under 20 % of one predicted evaluation of the
// plan it picks (the fastest iteration is held to the bounds — this box
// steals cores — and the mean is what is reported; the ladder costs the same
// 18–22 ms on every binding, so the share is 8 % where the portable pair loop
// makes that evaluation 0.28 s and 13 % at AVX2's 0.16 s, but 22–27 % where
// the AVX-512 one makes it 0.081 s: since PR 19 halved the far field this
// benchmark FAILS its share bound there. The bound stands; the ladder — four
// tree and DAG builds — is what has to get cheaper (ROADMAP item 4f).
// The time is never an input of the choice, so it is bounded here and not
// in tier-1.
func BenchmarkTunerLadder(b *testing.B) {
	const n = 16000
	sp := points.Generate(points.Cube, n, 1)
	tp := points.Generate(points.Cube, n, 2)
	var sum, fastest time.Duration
	var plan *Plan
	for i := 0; i < b.N; i++ {
		var err error
		plan, err = NewPlan(sp, tp, kernel.NewLaplace(kernel.OrderForDigits(3)), Options{})
		if err != nil {
			b.Fatal(err)
		}
		d := plan.Tuning().Elapsed
		sum += d
		if i == 0 || d < fastest {
			fastest = d
		}
	}
	share := fastest.Seconds() * 1e9 / plan.PredictedNanos()
	b.ReportMetric(sum.Seconds()*1e3/float64(b.N), "tuner-ms")
	b.ReportMetric(fastest.Seconds()*1e3, "tuner-ms-fastest")
	b.ReportMetric(share, "tuner/predicted-eval")
	b.ReportMetric(float64(plan.Threshold()), "threshold")
	b.ReportMetric(float64(len(plan.Tuning().Candidates)), "candidates")
	if b.N < 5 {
		return // the harness's one-iteration probe is a cold process
	}
	if fastest > 25*time.Millisecond || share > 0.20 {
		b.Errorf("tuner took %v, %.0f%% of the predicted evaluation (%.3f s): bounds are 25 ms and 20%%",
			fastest, 100*share, plan.PredictedNanos()/1e9)
	}
}

// More digits make every far-field operator dearer and leave S→T alone, so
// six digits never pick a finer tree than three on the same points.
func TestTunerMoreDigitsNeverFiner(t *testing.T) {
	for _, c := range []struct {
		d points.Distribution
		n int
	}{{points.Cube, 16000}, {points.Sphere, 12000}, {points.Cube, 5000}} {
		three := tunedPlan(t, c.d, c.n, 3, dag.Advanced)
		six := tunedPlan(t, c.d, c.n, 6, dag.Advanced)
		if six.Threshold() < three.Threshold() {
			t.Errorf("%v N=%d: 6 digits chose threshold %d, finer than 3 digits' %d",
				c.d, c.n, six.Threshold(), three.Threshold())
		}
	}
}

// A rung the kernel refuses as too deep ends the ladder, not the plan: at
// twelve digits a Laplace kernel admits trees two levels deep (one level's
// plane-wave tables are 747 MB), and a near field priced dear enough to
// want finer trees gets the deepest admitted. An explicit threshold past it
// is refused.
func TestTunerStopsAtTheDeepestAdmittedTree(t *testing.T) {
	const n = 16000
	k := pricedKernel{kernel.NewLaplace(kernel.OrderForDigits(12)), 1e4}
	plan := tunedPlanOn(t, k, points.Cube, n, dag.Advanced)
	if l := plan.MaxLevel(); l != 2 {
		t.Errorf("level %d (threshold %d), want 2, the deepest the kernel admits", l, plan.Threshold())
	}
	sp := points.Generate(points.Cube, n, 1)
	tp := points.Generate(points.Cube, n, 2)
	if _, err := NewPlan(sp, tp, k, Options{Threshold: plan.Threshold() / 4}); !errors.Is(err, kernel.ErrRuleTooLarge) {
		t.Errorf("threshold %d: NewPlan returned %v, want ErrRuleTooLarge", plan.Threshold()/4, err)
	}
}

// The chosen candidate is the finest one within the tie band of the
// cheapest, on every method.
func TestTunerChoosesCheapestUpToTies(t *testing.T) {
	for _, m := range []dag.Method{dag.Advanced, dag.Basic, dag.BarnesHut} {
		for _, n := range []int{3000, 9000} {
			plan := tunedPlan(t, points.Sphere, n, 3, m)
			tn := plan.Tuning()
			cheapest := tn.Candidates[0].Total()
			for _, c := range tn.Candidates {
				cheapest = min(cheapest, c.Total())
			}
			chosen := tn.Candidates[tn.Chosen]
			if chosen.Total() > tieBand*cheapest {
				t.Errorf("%v N=%d: chose %.3g ns, cheapest candidate is %.3g", m, n, chosen.Total(), cheapest)
			}
			for _, c := range tn.Candidates[tn.Chosen+1:] {
				if c.Total() <= tieBand*cheapest {
					t.Errorf("%v N=%d: threshold %d (%.3g ns) is finer than the chosen %d and within the tie band of %.3g",
						m, n, c.Threshold, c.Total(), chosen.Threshold, cheapest)
				}
			}
			if chosen.Threshold != plan.Threshold() || chosen.Nanos != plan.Predicted() ||
				chosen.Leaves != plan.Leaves() {
				t.Errorf("%v N=%d: the plan is not the chosen candidate: %+v vs threshold %d", m, n, chosen, plan.Threshold())
			}
			for i := 1; i < len(tn.Candidates); i++ {
				if tn.Candidates[i].Threshold*2 != tn.Candidates[i-1].Threshold {
					t.Errorf("%v N=%d: ladder %d -> %d is not a halving", m, n, tn.Candidates[i-1].Threshold, tn.Candidates[i].Threshold)
				}
			}
		}
	}
}

// An ensemble larger than the finest candidate never gets a root-leaf tree:
// the executor, and the benchmark's micro-timings, want a leaf below the
// root and at least eight near-field tasks.
func TestTunerNeverRootLeafAboveSmallestCandidate(t *testing.T) {
	for _, n := range []int{minThreshold + 1, 100, 700, 2000} {
		plan := tunedPlan(t, points.Cube, n, 3, dag.Advanced)
		if plan.MaxLevel() < 1 {
			t.Errorf("N=%d: root-leaf tree at threshold %d", n, plan.Threshold())
		}
	}
	plan := tunedPlan(t, points.Cube, minThreshold, 3, dag.Advanced)
	if plan.MaxLevel() != 0 || plan.Threshold() != minThreshold {
		t.Errorf("N=%d: level %d at threshold %d, want the single leaf", minThreshold, plan.MaxLevel(), plan.Threshold())
	}
}

// Equal inputs give equal trees: call after call, and on two ranks tuning at
// once.
func TestTunerIsDeterministic(t *testing.T) {
	const n = 7000 // past the crossover: the ladder prices far-field candidates
	ref := tunedPlan(t, points.Cube, n, 3, dag.Advanced)
	same := func(what string, p *Plan) {
		t.Helper()
		if p.Threshold() != ref.Threshold() || len(p.Graph.Nodes) != len(ref.Graph.Nodes) ||
			p.Graph.EdgeCount != ref.Graph.EdgeCount || p.Predicted() != ref.Predicted() {
			t.Fatalf("%s: threshold %d, %d nodes, edges %v; first call gave %d, %d, %v",
				what, p.Threshold(), len(p.Graph.Nodes), p.Graph.EdgeCount,
				ref.Threshold(), len(ref.Graph.Nodes), ref.Graph.EdgeCount)
		}
	}
	calls := 50
	if raceEnabled {
		calls = 5
	}
	for i := 1; i < calls; i++ {
		same(fmt.Sprintf("call %d", i), tunedPlan(t, points.Cube, n, 3, dag.Advanced))
	}

	var ranks [2]*Plan
	var wg sync.WaitGroup
	for r := range ranks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp := points.Generate(points.Cube, n, 1)
			tp := points.Generate(points.Cube, n, 2)
			ranks[r], _ = NewPlan(sp, tp, kernel.NewLaplace(kernel.OrderForDigits(3)), Options{})
		}()
	}
	wg.Wait()
	for r, p := range ranks {
		if p == nil {
			t.Fatalf("rank %d: NewPlan failed", r)
		}
		same(fmt.Sprintf("rank %d of two tuning at once", r), p)
	}
}

// A given threshold means what it always meant: the tuner is not entered
// (counted, not timed), neither by NewPlan nor by a revival from trees, and
// building with the tuner's resolved value reproduces the tuned plan bit for
// bit — which is how worker ranks and a restarted daemon get rank 0's tree.
func TestExplicitThresholdBypassesTuner(t *testing.T) {
	const n = 7000
	sp := points.Generate(points.Cube, n, 1)
	tp := points.Generate(points.Cube, n, 2)
	q := points.Charges(n, 3)
	p := kernel.OrderForDigits(3)

	before := TunerEntries()
	tuned, err := NewPlan(sp, tp, kernel.NewLaplace(p), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := TunerEntries() - before; got != 1 {
		t.Fatalf("Threshold 0 entered the tuner %d times, want 1", got)
	}

	before = TunerEntries()
	given, err := NewPlan(sp, tp, kernel.NewLaplace(p), Options{Threshold: tuned.Threshold()})
	if err != nil {
		t.Fatal(err)
	}
	dom := tuned.Source.Domain
	revived, err := NewPlanFromTrees(tree.Build(sp, dom, tuned.Threshold()), tree.Build(tp, dom, tuned.Threshold()),
		kernel.NewLaplace(p), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := TunerEntries() - before; got != 0 {
		t.Errorf("an explicit threshold and a revival from trees entered the tuner %d times", got)
	}
	want, err := tuned.EvaluateSequential(q)
	if err != nil {
		t.Fatal(err)
	}
	for name, plan := range map[string]*Plan{"explicit": given, "revived": revived} {
		if plan.Tuning() != nil {
			t.Errorf("%s plan carries a tuning ladder", name)
		}
		if plan.Graph.EdgeCount != tuned.Graph.EdgeCount || len(plan.Graph.Nodes) != len(tuned.Graph.Nodes) {
			t.Fatalf("%s plan at threshold %d: %d nodes, edges %v; the tuned plan has %d, %v", name, tuned.Threshold(),
				len(plan.Graph.Nodes), plan.Graph.EdgeCount, len(tuned.Graph.Nodes), tuned.Graph.EdgeCount)
		}
		got, err := plan.EvaluateSequential(q)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s plan: potential %d is %v, the tuned plan's %v", name, i, got[i], want[i])
			}
		}
	}
	if given.Threshold() != tuned.Threshold() {
		t.Errorf("explicit plan reports threshold %d, want %d", given.Threshold(), tuned.Threshold())
	}
	if _, err := NewPlan(sp, tp, kernel.NewLaplace(p), Options{Threshold: -1}); err == nil {
		t.Error("negative threshold accepted")
	}
}
