package kernel_test

import (
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/geom"
	"repro/internal/kernel"
	"repro/internal/points"
)

// i2iCall is one I->I application as the executor issued it.
type i2iCall struct {
	dir   geom.Direction
	level int
	shift geom.Point
}

// spyKernel records every I2I the plan applies — whatever shape of edge it
// came from — and passes it through.
type spyKernel struct {
	kernel.Kernel
	calls map[i2iCall]int
	order []i2iCall // distinct calls, first-seen order
}

func (s *spyKernel) I2I(dir geom.Direction, level int, shift geom.Point, in, out []complex128) {
	c := i2iCall{dir, level, shift}
	if s.calls[c] == 0 {
		s.order = append(s.order, c)
	}
	s.calls[c]++
	s.Kernel.I2I(dir, level, shift, in, out)
}

type planCase struct {
	name   string
	distr  points.Distribution
	kernel func() kernel.Kernel
}

func planCases() []planCase {
	p := kernel.OrderForDigits(3)
	lap := func() kernel.Kernel { return kernel.NewLaplace(p) }
	yuk := func() kernel.Kernel { return kernel.NewYukawa(p, 4.0) }
	return []planCase{
		{"cube/laplace", points.Cube, lap},
		{"cube/yukawa", points.Cube, yuk},
		{"sphere/laplace", points.Sphere, lap},
		{"sphere/yukawa", points.Sphere, yuk},
	}
}

// evaluateSpied builds an Advanced plan over the case's ensembles with a
// fresh kernel behind a spy and evaluates it sequentially.
func evaluateSpied(t *testing.T, pc planCase) (*spyKernel, *core.Plan, []float64) {
	t.Helper()
	const n = 4000
	sp := points.Generate(pc.distr, n, 1)
	tp := points.Generate(pc.distr, n, 2)
	spy := &spyKernel{Kernel: pc.kernel(), calls: map[i2iCall]int{}}
	plan, err := core.NewPlan(sp, tp, spy, core.Options{Method: dag.Advanced, Threshold: 40})
	if err != nil {
		t.Fatal(err)
	}
	pot, err := plan.EvaluateSequential(points.Charges(n, 3))
	if err != nil {
		t.Fatal(err)
	}
	return spy, plan, pot
}

// Every I->I edge of real plans — merge, transfer, hoisted transfer,
// distribution — multiplies by factors that sit in a table slot and equal
// the Exp/Sincos formula at the edge's actual centre difference (an
// evaluation off the lattice would have panicked); and the tables do not depend on who
// filled them in what order: a kernel that meets the same shifts backwards
// holds the same bits, and a second fresh kernel returns the same
// potentials.
func TestShiftTableOnEveryPlanEdge(t *testing.T) {
	var merge, transfer, hoisted, distribute int
	for _, pc := range planCases() {
		spy, plan, pot := evaluateSpied(t, pc)
		for i := range plan.Graph.Nodes {
			for _, e := range plan.Graph.Nodes[i].Out {
				if e.Op != dag.OpI2I {
					continue
				}
				switch {
				case e.DirMask != 0 && e.FromMerged:
					distribute++
				case e.DirMask != 0:
					merge++
				case e.ToMerged:
					hoisted++
				default:
					transfer++
				}
			}
		}

		k := spy.Kernel
		rev := pc.kernel() // same root cube, slots touched in reverse order
		rev.Prepare(k.RootSide(), plan.Source.MaxLevel+plan.Target.MaxLevel+1)
		for i := len(spy.order) - 1; i >= 0; i-- {
			c := spy.order[i]
			n := rev.ISize(c.level)
			rev.I2I(c.dir, c.level, c.shift, kernel.Ones(n), make([]complex128, n))
		}
		applications := 0
		for _, c := range spy.order {
			applications += spy.calls[c]
			slot, revSlot := kernel.ShiftSlot(k, c.dir, c.level, c.shift), kernel.ShiftSlot(rev, c.dir, c.level, c.shift)
			if slot == nil || revSlot == nil {
				t.Fatalf("%s: %+v left no slot", pc.name, c)
			}
			n := k.ISize(c.level)
			got := make([]complex128, n)
			k.I2I(c.dir, c.level, c.shift, kernel.Ones(n), got)
			want := kernel.RefShiftFactors(k, c.dir, c.level, c.shift)
			for i := range want {
				if got[i] != (*slot)[i] || got[i] != (*revSlot)[i] {
					t.Fatalf("%s: %+v term %d: applied %v, slot holds %v, reverse-filled slot %v",
						pc.name, c, i, got[i], (*slot)[i], (*revSlot)[i])
				}
				if cmplx.Abs(got[i]-want[i]) > 1e-13*math.Max(1, cmplx.Abs(want[i])) {
					t.Fatalf("%s: %+v term %d: table %v, formula %v", pc.name, c, i, got[i], want[i])
				}
			}
		}
		t.Logf("%s: %d applications over %d distinct (direction, level, shift)",
			pc.name, applications, len(spy.order))

		if k.Name() == "yukawa" {
			// Yukawa tables are per kernel: a second fresh kernel fills its
			// own and must land on the same potentials bit for bit (Laplace
			// kernels share one table, which the reverse fill above covers).
			_, _, pot2 := evaluateSpied(t, pc)
			for i := range pot {
				if pot[i] != pot2[i] {
					t.Fatalf("%s: potential %d differs between two fresh kernels: %v vs %v", pc.name, i, pot[i], pot2[i])
				}
			}
		}
	}
	st := kernel.ShiftTableStats()
	t.Logf("process-wide table: %d slots, %d bytes", st.Slots, st.Bytes)
	if merge == 0 || transfer == 0 || hoisted == 0 || distribute == 0 {
		t.Errorf("an I->I shape was never exercised (merge %d, transfer %d, hoisted %d, distribution %d)",
			merge, transfer, hoisted, distribute)
	}
}
