// Package core is the DASHMM-style user-facing layer: it assembles the dual
// tree, the interaction lists and the explicit DAG for a (sources, targets,
// kernel, method) problem, owns the expansion payloads, and evaluates the
// DAG either sequentially (the reference walker below) or on the AMT runtime.
//
// There is one executor (exec.go): a fired node walks its out edges, applies
// the local ones through state.apply, coalesces the remote ones into a parcel
// per destination, counts each target down and spawns it at zero; a fired
// target node is gathered at rank 0, from another rank as one more parcel.
// The in-process ParallelEvaluation and the multi-process DistRun
// (distrib.go) both end in its one run body; DistRun adds a fabric — the
// wire, parcel installs — that the executor holds
// when there is a cluster and does not otherwise.
//
// As in the paper, the same Plan can be evaluated many times for different
// charge inputs, amortizing the setup cost (Section IV: "the FMM is widely
// used in an iterative procedure where the same DAG is evaluated multiple
// times").
package core

import (
	"fmt"
	"math/bits"
	"time"
	"unsafe"

	"repro/internal/dag"
	"repro/internal/dist"
	"repro/internal/geom"
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/tree"
)

// Options configures plan construction.
type Options struct {
	// Method selects the HMM variant (default: advanced merge-and-shift
	// FMM).
	Method dag.Method
	// Threshold is the tree refinement threshold: a box holding more points
	// is split. Zero lets NewPlan choose it from the operator-cost model
	// (tune.go); a positive value is used as given — tree.Threshold, 60, is
	// the paper's setting.
	Threshold int
	// Theta is the Barnes–Hut opening angle (default 0.5).
	Theta float64
}

// Plan is a prepared evaluation: trees, lists, explicit DAG and the
// per-level kernel tables.
type Plan struct {
	Kernel kernel.Kernel
	Source *tree.Tree
	Target *tree.Tree
	Lists  []tree.Lists
	Graph  *dag.Graph

	// threshold is the refinement threshold the trees were built with,
	// predicted the cost model's busy nanoseconds of one evaluation per
	// operator class, tuning the ladder that chose the threshold (nil when
	// it was given).
	threshold int
	predicted [dag.NumOpKinds]float64
	tuning    *Tuning

	// batches carries the plan-build-time batch descriptors (dag.BuildBatches):
	// far-field edges grouped per dense operator, near-field edges per target
	// leaf. The serve plan cache reuses them along with the rest of the plan.
	batches *dag.Batches

	// spans lays out the payloads of every evaluation context of the plan,
	// node by node, in one slab (layoutPayloads).
	spans []span
}

// place runs the paper's placement (dist.MinComm) over the plan's graph for
// len(live) ranks, maps rank index i to live[i], and returns the node → rank
// table. In-process live is [0]; a distributed run passes the sorted ranks
// still alive when its job was placed, so a re-run after a death places
// nothing on the corpse and every survivor computes the same table. Computed
// once per evaluation context, reading the graph only: contexts on one plan
// place concurrently and each holds its own.
func (p *Plan) place(live []int32) []int32 {
	homes := dist.MinComm{}.Homes(p.Graph, len(live))
	for i, h := range homes {
		homes[i] = live[h]
	}
	return homes
}

// NewPlan partitions the ensembles, computes the dual-tree lists, and builds
// the explicit DAG. With Options.Threshold zero the leaf size is the one
// the operator-cost model predicts to be cheapest for these points, this
// kernel and this method (see tune).
func NewPlan(sources, targets []geom.Point, k kernel.Kernel, opts Options) (*Plan, error) {
	if len(sources) == 0 || len(targets) == 0 {
		return nil, fmt.Errorf("core: empty ensemble (%d sources, %d targets)", len(sources), len(targets))
	}
	if opts.Threshold < 0 {
		return nil, fmt.Errorf("core: negative refinement threshold %d", opts.Threshold)
	}
	var p *Plan
	var err error
	if opts.Threshold == 0 {
		tunerEntries.Add(1)
		start := time.Now()
		p, err = tune(sources, targets, k, opts)
		if err == nil {
			p.tuning.Elapsed = time.Since(start)
		}
	} else {
		p, err = assemble(sources, targets, geom.BoundingCube(sources, targets), k, opts, opts.Threshold)
	}
	if err != nil {
		return nil, err
	}
	p.batches = dag.BuildBatches(p.Graph, k)
	return p, nil
}

// assemble builds the trees for one threshold and everything of a plan that
// follows from them except the batch descriptors.
func assemble(sources, targets []geom.Point, dom geom.Cube, k kernel.Kernel, o Options, threshold int) (*Plan, error) {
	return fromTrees(tree.Build(sources, dom, threshold), tree.Build(targets, dom, threshold), k, o, threshold)
}

// NewPlanFromTrees assembles a plan from already-built source and target
// trees over a shared domain: dual-tree lists, kernel tables and the
// explicit DAG. It is the second half of NewPlan, split out so the
// persistent plan store can revive a spilled tree skeleton (see
// tree.FromSkeleton) without re-partitioning the ensembles. The target
// tree's pruning marks are (re)computed here. The trees are what they are:
// Options.Threshold is never tuned here, only recorded (Plan.Threshold) as
// the value the caller says they were built with.
func NewPlanFromTrees(src, tgt *tree.Tree, k kernel.Kernel, opts Options) (*Plan, error) {
	if src == nil || tgt == nil || len(src.Pts) == 0 || len(tgt.Pts) == 0 {
		return nil, fmt.Errorf("core: empty tree")
	}
	if src.Domain != tgt.Domain {
		return nil, fmt.Errorf("core: source and target trees disagree on the domain")
	}
	p, err := fromTrees(src, tgt, k, opts, opts.Threshold)
	if err != nil {
		return nil, err
	}
	p.batches = dag.BuildBatches(p.Graph, k)
	return p, nil
}

// fromTrees prepares the kernel, computes the lists, builds the DAG and
// prices it with the kernel's cost model. A root cube the kernel refuses
// (kernel.ErrRuleTooLarge) is an error before any of it.
func fromTrees(src, tgt *tree.Tree, k kernel.Kernel, o Options, threshold int) (*Plan, error) {
	maxLevel := max(src.MaxLevel, tgt.MaxLevel)
	if err := k.Prepare(src.Domain.Side, maxLevel+1); err != nil {
		return nil, err
	}
	lists := tree.DualLists(tgt, src)
	g := dag.Build(dag.Config{Method: o.Method, Theta: o.Theta}, src, tgt, lists, k)
	model := sim.KernelModel(k, maxLevel)
	return &Plan{
		Kernel: k, Source: src, Target: tgt, Lists: lists, Graph: g,
		threshold: threshold, predicted: model.Predict(g),
		spans: layoutPayloads(g, k),
	}, nil
}

// Threshold returns the refinement threshold the plan's trees were built
// with: Options.Threshold, or the value the tuner chose when that was zero.
// Building with this value explicitly reproduces the plan without tuning,
// which is how worker ranks and a restarted daemon get rank 0's tree.
func (p *Plan) Threshold() int { return p.threshold }

// Predicted returns the cost model's busy nanoseconds of one evaluation of
// the plan, per operator class (sim.KernelModel summed over the DAG).
func (p *Plan) Predicted() [dag.NumOpKinds]float64 { return p.predicted }

// PredictedNanos is the total of Predicted: the core-nanoseconds one
// evaluation is expected to keep busy.
func (p *Plan) PredictedNanos() float64 { return sumOps(p.predicted) }

// Leaves returns the number of source plus target leaves.
func (p *Plan) Leaves() int { return len(p.Source.Leaves) + len(p.Target.Leaves) }

// MaxLevel returns the level of the deepest box of either tree.
func (p *Plan) MaxLevel() int { return max(p.Source.MaxLevel, p.Target.MaxLevel) }

// Tuning returns the ladder of candidate thresholds NewPlan priced to pick
// this plan's leaf size, or nil when the threshold was given.
func (p *Plan) Tuning() *Tuning { return p.tuning }

// checkKernel fails when the plan's kernel is no longer prepared for the
// plan's root cube. A kernel's level-indexed tables describe one root cube
// at a time (kernel.Prepare), so building a second plan over a different
// domain with the same kernel value rebinds it; the first plan would then
// translate with the wrong box sides and return quietly degraded numbers.
// Every executor calls this on entry and again before handing out results,
// so a rebind that lands mid-run is reported too.
func (p *Plan) checkKernel() error {
	if got, want := p.Kernel.RootSide(), p.Source.Domain.Side; got != want {
		return fmt.Errorf("core: kernel %s is prepared for a root cube of side %g, this plan's is %g: "+
			"a kernel value serves one root cube at a time — give each plan its own kernel", p.Kernel.Name(), got, want)
	}
	return nil
}

// span is a node's range of a state's slab, slab[lo:hi]: its M or L
// expansion, or its waves — waves[0] its own, waves[1] its merged (Is) or
// shared (It) child-level ones, each set in its mask's direction order from
// at, size coefficients a wave. That is the wire order.
type span struct {
	lo, hi int
	waves  [2]struct{ at, size int }
}

// slabAlign puts every span on a 64-byte line, in coefficients: two nodes
// added into under their own locks by different workers never share one.
const slabAlign = 4

// layoutPayloads lays the payloads of g's nodes out in one slab, in node-id
// order: the last node's span ends it.
func layoutPayloads(g *dag.Graph, k kernel.Kernel) []span {
	spans, at := make([]span, len(g.Nodes)), 0
	for i := range g.Nodes {
		n, sp := &g.Nodes[i], &spans[i]
		sp.lo = (at + slabAlign - 1) &^ (slabAlign - 1)
		sp.hi = sp.lo
		switch n.Kind {
		case dag.NodeM, dag.NodeL:
			sp.hi += k.MLSize()
		case dag.NodeIs, dag.NodeIt:
			own, mrg := &sp.waves[0], &sp.waves[1]
			own.at, own.size = sp.lo, k.ISize(n.Level())
			mrg.at = own.at + bits.OnesCount8(n.OwnMask)*own.size
			if n.MergedMask != 0 {
				mrg.size = k.ISize(n.Level() + 1)
			}
			sp.hi = mrg.at + bits.OnesCount8(n.MergedMask)*mrg.size
		}
		at = sp.hi
	}
	return spans
}

// state holds the payloads of one evaluation of the DAG.
type state struct {
	p *Plan
	// slab holds every node's payload (Plan.spans).
	slab []complex128
	// q is the source charge vector in tree order.
	q []float64
	// pot is the target potential vector in tree order.
	pot []float64
	// grad, when non-nil, accumulates the potential gradient per target
	// point (field/force evaluation).
	grad []geom.Point
}

// newState allocates zeroed payloads for every node of the graph; withGrad
// also allocates the gradient accumulators. Charges arrive per run, through
// reset.
func (p *Plan) newState(withGrad bool) *state {
	s := &state{
		p:    p,
		slab: newSlab(p.spans[len(p.spans)-1].hi),
		q:    make([]float64, len(p.Source.Pts)),
		pot:  make([]float64, len(p.Target.Pts)),
	}
	if withGrad {
		s.grad = make([]geom.Point, len(p.Target.Pts))
	}
	return s
}

// newSlab allocates n zeroed coefficients from the start of a 64-byte line.
func newSlab(n int) []complex128 {
	buf := make([]complex128, n+slabAlign-1)
	skip := int(-uintptr(unsafe.Pointer(unsafe.SliceData(buf))) % 64 / 16)
	return buf[skip : skip+n : skip+n]
}

// payload is node id's payload, in wire order: none for S and T nodes.
//
//dashmm:noalloc
func (s *state) payload(id int32) []complex128 {
	sp := &s.p.spans[id]
	return s.slab[sp.lo:sp.hi:sp.hi]
}

// exp is an M or L node's expansion, its whole payload.
func (s *state) exp(id int32) []complex128 { return s.payload(id) }

// wave is an Is or It node's own wave of direction d or, merged, its merged
// (Is) or shared (It) one; the node's mask must have d.
//
//dashmm:noalloc
func (s *state) wave(id int32, d int, merged bool) []complex128 {
	n, w := &s.p.Graph.Nodes[id], s.p.spans[id].waves[0]
	mask := n.OwnMask
	if merged {
		mask, w = n.MergedMask, s.p.spans[id].waves[1]
	}
	lo := w.at + bits.OnesCount8(mask&(1<<d-1))*w.size
	return s.slab[lo : lo+w.size]
}

// reset installs a charge vector and zeroes everything computed from the
// previous one — potentials, gradients and all expansion payloads — so the
// state can be reused run over run.
func (s *state) reset(charges []float64) {
	for i, orig := range s.p.Source.Perm {
		s.q[i] = charges[orig]
	}
	clear(s.pot)
	clear(s.grad)
	clear(s.slab)
}

// potentials un-permutes the tree-ordered potentials back to the caller's
// target order.
func (s *state) potentials() []float64 {
	out := make([]float64, len(s.pot))
	for i, orig := range s.p.Target.Perm {
		out[orig] = s.pot[i]
	}
	return out
}

// gradients un-permutes the tree-ordered gradients back to the caller's
// target order.
func (s *state) gradients() []geom.Point {
	if s.grad == nil {
		return nil
	}
	out := make([]geom.Point, len(s.grad))
	for i, orig := range s.p.Target.Perm {
		out[orig] = s.grad[i]
	}
	return out
}

// apply executes one DAG edge: it transforms the payload of node `from` and
// accumulates the result into the payload of edge.To. It is the single
// definition of operator semantics shared by every executor; its S->T, M->L,
// M->I and I->L arms are the sequential walker's alone, the reference the
// AMT executors' near tasks and far batches are held to. Concurrent callers
// must serialize per destination node (the LCO lock in the runtime
// executor).
func (s *state) apply(from *dag.Node, e dag.Edge) {
	g := s.p.Graph
	k := s.p.Kernel
	to := &g.Nodes[e.To]
	switch e.Op {
	case dag.OpS2M:
		b := from.Box
		k.S2M(b.Center, s.srcPts(b), s.q[b.Lo:b.Hi], s.exp(to.ID))
	case dag.OpM2M:
		k.M2M(from.Box.Center, to.Box.Center, from.Box.Side, s.exp(from.ID), s.exp(to.ID))
	case dag.OpM2L:
		k.M2L(from.Box.Center, to.Box.Center, from.Box.Side, s.exp(from.ID), s.exp(to.ID))
	case dag.OpL2L:
		k.L2L(from.Box.Center, to.Box.Center, to.Box.Side, s.exp(from.ID), s.exp(to.ID))
	case dag.OpL2T:
		b := to.Box
		if s.grad != nil {
			k.L2TGrad(from.Box.Center, s.exp(from.ID), s.tgtPts(b),
				s.pot[b.Lo:b.Hi], s.grad[b.Lo:b.Hi])
			return
		}
		k.L2T(from.Box.Center, s.exp(from.ID), s.tgtPts(b), s.pot[b.Lo:b.Hi])
	case dag.OpM2T:
		b := to.Box
		if s.grad != nil {
			k.M2TGrad(from.Box.Center, s.exp(from.ID), s.tgtPts(b),
				s.pot[b.Lo:b.Hi], s.grad[b.Lo:b.Hi])
			return
		}
		k.M2T(from.Box.Center, s.exp(from.ID), s.tgtPts(b), s.pot[b.Lo:b.Hi])
	case dag.OpS2L:
		b := from.Box
		k.S2L(to.Box.Center, s.srcPts(b), s.q[b.Lo:b.Hi], s.exp(to.ID))
	case dag.OpS2T:
		sb, tb := from.Box, to.Box
		if s.grad != nil {
			k.S2TGrad(s.srcPts(sb), s.q[sb.Lo:sb.Hi], s.tgtPts(tb),
				s.pot[tb.Lo:tb.Hi], s.grad[tb.Lo:tb.Hi])
			return
		}
		k.S2T(s.srcPts(sb), s.q[sb.Lo:sb.Hi], s.tgtPts(tb), s.pot[tb.Lo:tb.Hi])
	case dag.OpM2I:
		for d := 0; d < geom.NumDirections; d++ {
			if e.DirMask&(1<<uint(d)) != 0 {
				k.M2I(geom.Direction(d), from.Level(), s.exp(from.ID), s.wave(to.ID, d, false))
			}
		}
	case dag.OpI2L:
		for d := 0; d < geom.NumDirections; d++ {
			if from.OwnMask&(1<<uint(d)) != 0 {
				k.I2L(geom.Direction(d), from.Level(), s.wave(from.ID, d, false), s.exp(to.ID))
			}
		}
	case dag.OpI2I:
		s.applyI2I(from, to, e)
	default:
		panic("core: unknown op " + e.Op.String())
	}
}

// applyI2I handles the four I->I shapes: child-to-parent merge, box-to-box
// transfer, hoisted transfer into a shared wave, and parent-to-children
// distribution. A kernel rebound to another root cube under the run puts
// the shifts off its lattice and I2I panics: the run drains and reports the
// rebind (checkKernel). Any other panic stays one.
func (s *state) applyI2I(from, to *dag.Node, e dag.Edge) {
	defer func() {
		if v := recover(); v != nil && s.p.checkKernel() == nil {
			panic(v)
		}
	}()
	k, lvl := s.p.Kernel, to.Level()
	if e.ToMerged {
		lvl++ // into a merged or shared wave: the children's level
	}
	shift := to.Box.Center.Sub(from.Box.Center)
	dirs := e.DirMask // merge (Is->Is) or distribution (It->It)
	if dirs == 0 {
		dirs = 1 << uint(e.Dir) // transfer (Is->It): one direction
	}
	for d := 0; d < geom.NumDirections; d++ {
		if dirs&(1<<uint(d)) != 0 {
			k.I2I(geom.Direction(d), lvl, shift, s.wave(from.ID, d, e.FromMerged), s.wave(to.ID, d, e.ToMerged))
		}
	}
}

func (s *state) srcPts(b *tree.Box) []geom.Point { return s.p.Source.Pts[b.Lo:b.Hi] }
func (s *state) tgtPts(b *tree.Box) []geom.Point { return s.p.Target.Pts[b.Lo:b.Hi] }

// EvaluateSequential runs the DAG in one goroutine in topological order and
// returns the potentials in the caller's target order. It is the reference
// executor used by the correctness tests and by the cost calibration of the
// simulator — per-edge through state.apply by construction, no batches, no
// runtime.
func (p *Plan) EvaluateSequential(charges []float64) ([]float64, error) {
	st, err := p.walk(charges, false)
	if err != nil {
		return nil, err
	}
	return st.potentials(), nil
}

// EvaluateSequentialGrad also computes the potential gradient (field /
// force) at every target.
func (p *Plan) EvaluateSequentialGrad(charges []float64) ([]float64, []geom.Point, error) {
	st, err := p.walk(charges, true)
	if err != nil {
		return nil, nil, err
	}
	return st.potentials(), st.gradients(), nil
}

// Stats summarizes the plan for diagnostics.
func (p *Plan) Stats() string {
	nodes, edges := p.Graph.Census()
	return fmt.Sprintf("method=%v nodes=%d edges=%d\n%s\n%s",
		p.Graph.Method, len(p.Graph.Nodes), p.Graph.NumEdges(),
		dag.FormatNodeCensus(nodes), dag.FormatEdgeCensus(edges, nil))
}

// walk is the one sequential walker: fresh payload buffers, then every edge
// in topological order, each through state.apply.
func (p *Plan) walk(charges []float64, withGrad bool) (*state, error) {
	if len(charges) != len(p.Source.Pts) {
		return nil, fmt.Errorf("core: %d charges for %d sources", len(charges), len(p.Source.Pts))
	}
	order := p.Graph.TopoOrder()
	if len(order) != len(p.Graph.Nodes) {
		return nil, fmt.Errorf("core: graph is not a DAG")
	}
	if err := p.checkKernel(); err != nil {
		return nil, err
	}
	st := p.newState(withGrad)
	st.reset(charges)
	for _, id := range order {
		n := &p.Graph.Nodes[id]
		for _, ed := range n.Out {
			st.apply(n, ed)
		}
	}
	return st, p.checkKernel()
}
