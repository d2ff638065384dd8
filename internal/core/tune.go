package core

import (
	"errors"
	"sync/atomic"
	"time"

	"repro/internal/dag"
	"repro/internal/geom"
	"repro/internal/kernel"
)

// The leaf-size tuner (DESIGN.md, "Leaf size"). The paper refines every box
// holding more than 60 points, which balances its Table II costs; ours are
// different, and they move whenever an operator gets cheaper. So when the
// caller leaves Options.Threshold at zero, NewPlan prices a short ladder of
// candidate thresholds with the kernel's own cost model — the candidate's
// real DAG, summed edge by edge (sim.KernelModel, CostModel.Predict) — and
// keeps the cheapest tree.
//
// The choice is a pure function of (points, kernel, method): nothing in
// this file reads a clock, draws a random number or ranges over a map
// (dashmm-lint's determinism checker covers it), because SPMD ranks, the
// plan cache and the plan store all assume that equal inputs give equal
// trees. Pure per process: the kernel's pair price is that of the pair loop
// its CPU let it bind (kernel/p2p.go), so two machines may resolve the same
// points to different thresholds. That is safe because a threshold is only
// ever resolved by one process — job specs and store records carry the
// resolved value, and whoever receives one builds with it and never tunes.

const (
	// minThreshold is the finest rung of the ladder; the rungs double from
	// it (30, 60 — the paper's —, 120, 240, ...). An ensemble of at most
	// this many points is a single leaf.
	minThreshold = 30
	// tieBand: candidates predicted within 5 % of the cheapest are ties and
	// go to the finer tree — equal work in more tasks.
	tieBand = 1.05
)

// Candidate is one priced rung of the tuner's ladder.
type Candidate struct {
	Threshold int
	Leaves    int // source plus target leaves
	MaxLevel  int // deeper of the two trees
	// Nanos is the predicted busy time of one evaluation per operator class.
	Nanos [dag.NumOpKinds]float64
}

// Total is the candidate's predicted core-nanoseconds per evaluation.
func (c *Candidate) Total() float64 { return sumOps(c.Nanos) }

func sumOps(byOp [dag.NumOpKinds]float64) float64 {
	var t float64
	for _, v := range byOp {
		t += v
	}
	return t
}

// farField is Total less the direct S→T interactions.
func (c *Candidate) farField() float64 { return c.Total() - c.Nanos[dag.OpS2T] }

// Tuning records how NewPlan chose a plan's threshold.
type Tuning struct {
	// Candidates is the ladder in the order it was priced, coarse to fine.
	Candidates []Candidate
	// Chosen indexes the candidate the plan was built from.
	Chosen int
	// Elapsed is the wall time the tuner took. It is reported, never
	// consulted: the choice does not depend on it.
	Elapsed time.Duration
}

// tunerEntries counts NewPlan calls that ran the tuner.
var tunerEntries atomic.Int64

// TunerEntries reports how many plans of this process had their threshold
// chosen by the tuner rather than given. A process that only ever builds
// with explicit thresholds — a worker rank, a store revival — reads zero.
func TunerEntries() int64 { return tunerEntries.Load() }

// tune walks the ladder from the coarsest threshold that still splits the
// larger root down towards minThreshold and returns the plan of the chosen
// candidate, its Tuning attached. A rung whose trees equal the previous
// rung's (no leaf of them exceeds it) shares that rung's plan. The walk
// stops at the second distinct tree that fails to beat the best so far, or
// at the first whose far field alone costs more than the best whole plan:
// refining further only moves work out of S→T into a far field that does
// not shrink, so nothing finer can win. A rung the kernel refuses as too
// deep (kernel.ErrRuleTooLarge) ends the walk too: no finer one is shallower.
func tune(sources, targets []geom.Point, k kernel.Kernel, o Options) (*Plan, error) {
	dom := geom.BoundingCube(sources, targets)
	t := minThreshold
	for n := max(len(sources), len(targets)); 2*t < n; {
		t *= 2
	}
	tn := &Tuning{}
	var plans []*Plan // plans[i] is Candidates[i]'s, shared between equal trees
	best, misses := -1, 0
	for ; t >= minThreshold; t /= 2 {
		if i := len(plans) - 1; i >= 0 && maxLeaf(plans[i]) <= t {
			c := tn.Candidates[i]
			c.Threshold = t
			tn.Candidates = append(tn.Candidates, c)
			plans = append(plans, plans[i])
			continue
		}
		p, err := assemble(sources, targets, dom, k, o, t)
		if errors.Is(err, kernel.ErrRuleTooLarge) && best >= 0 {
			break // a finer tree needs more plane-wave tables than the kernel admits
		}
		if err != nil {
			return nil, err
		}
		c := Candidate{
			Threshold: t,
			Leaves:    p.Leaves(),
			MaxLevel:  p.MaxLevel(),
			Nanos:     p.predicted,
		}
		tn.Candidates = append(tn.Candidates, c)
		plans = append(plans, p)
		if best < 0 || c.Total() < tn.Candidates[best].Total() {
			best, misses = len(plans)-1, 0
			continue
		}
		if misses++; misses == 2 || c.farField() >= tn.Candidates[best].Total() {
			break
		}
	}
	// The finest candidate within the tie band of the cheapest.
	limit := tieBand * tn.Candidates[best].Total()
	for i := range tn.Candidates {
		if tn.Candidates[i].Total() <= limit {
			tn.Chosen = i
		}
	}
	p := plans[tn.Chosen]
	p.threshold = tn.Candidates[tn.Chosen].Threshold
	p.tuning = tn
	return p, nil
}

// maxLeaf is the largest leaf population of the plan's two trees: every
// threshold from it up to the one the trees were built with gives the same
// trees.
func maxLeaf(p *Plan) int {
	m := 0
	for _, b := range p.Source.Leaves {
		m = max(m, b.NPoints())
	}
	for _, b := range p.Target.Leaves {
		m = max(m, b.NPoints())
	}
	return m
}
