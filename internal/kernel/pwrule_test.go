package kernel

import (
	"math"
	"sync"
	"testing"

	"repro/internal/geom"
	"repro/internal/kernel/pwrule"
)

// forEachOrder runs f on every generated order, two at a time.
func forEachOrder(f func(p int)) {
	var wg sync.WaitGroup
	orders := make(chan int)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range orders {
				f(p)
			}
		}()
	}
	for p := laplaceMinOrder; p < len(laplaceRules); p++ {
		orders <- p
	}
	close(orders)
	wg.Wait()
}

// Every checked-in Laplace rule meets its order's tolerance on a grid finer
// than, and off, the one the generator checked it on, and keeps every alpha
// count even (the conjugate pairing and the shift table need it).
func TestLaplaceRulesMeetTheirTolerance(t *testing.T) {
	if len(laplaceRules)-1 != pwrule.MaxOrder || laplaceMinOrder != pwrule.MinOrder {
		t.Fatalf("rules for orders %d..%d checked in, the generator makes %d..%d",
			laplaceMinOrder, len(laplaceRules)-1, pwrule.MinOrder, pwrule.MaxOrder)
	}
	errs := make([]float64, len(laplaceRules))
	forEachOrder(func(p int) {
		r := laplaceRules[p]
		rule := pwrule.Rule{U: r.u, W: r.w, M: r.m}
		g := pwrule.CheckGrid(rule)
		fine := pwrule.Grid{
			Z:   offGrid(pwrule.ZMin, pwrule.ZMax, 2*len(g.Z)),
			Rho: offGrid(0, pwrule.RhoMax, 3*len(g.Rho)/2),
			Phi: []float64{0.13, 0.52, 0.91, 1.37, 1.66, 2.05, 2.71, math.Pi / 2},
		}
		errs[p] = pwrule.MaxError(rule, fine)
	})
	for p := laplaceMinOrder; p < len(laplaceRules); p++ {
		r := laplaceRules[p]
		if len(r.u) == 0 || len(r.w) != len(r.u) || len(r.m) != len(r.u) {
			t.Fatalf("p=%d: rule of %d nodes, %d weights, %d alpha counts", p, len(r.u), len(r.w), len(r.m))
		}
		for k, m := range r.m {
			if m < 2 || m%2 != 0 {
				t.Errorf("p=%d node %d: alpha count %d is not even and positive", p, k, m)
			}
		}
		if eps := pwrule.Tolerance(p); !(errs[p] <= eps) {
			t.Errorf("p=%d: worst relative error %.3g on the fine grid, over ε = %.3g", p, errs[p], eps)
		}
	}
	terms := func(p int) int { return makeRule(laplaceNodes(p), 1).total }
	p3, p6 := OrderForDigits(3), OrderForDigits(6)
	if n := terms(p3); n > 280 {
		t.Errorf("three digits (p=%d): %d terms per direction, want at most 280", p3, n)
	}
	t.Logf("p=%d: %d terms, worst error %.2g; p=%d: %d terms, worst error %.2g", p3, terms(p3), errs[p3], p6, terms(p6), errs[p6])
}

// offGrid is n points on [a, b]: both ends and n-2 points between that the
// generator's evenly spaced grids do not share.
func offGrid(a, b float64, n int) []float64 {
	out := []float64{a, b}
	for i := 0; i < n-2; i++ {
		out = append(out, a+(b-a)*(float64(i)+0.5+0.17)/float64(n-1))
	}
	return out
}

// The checked-in rules are what the generator makes now. Compared by value
// within 1e-13 relative, not byte for byte, so a platform whose compiler
// fuses multiply-adds differently does not fail it; `make generate-check`
// is the byte-for-byte form.
func TestLaplaceRulesMatchTheGenerator(t *testing.T) {
	fresh := make([]pwrule.Rule, len(laplaceRules))
	errs := make([]error, len(laplaceRules))
	forEachOrder(func(p int) { fresh[p], errs[p] = pwrule.Generate(p) })
	for p := laplaceMinOrder; p < len(laplaceRules); p++ {
		if errs[p] != nil {
			t.Errorf("p=%d: %v", p, errs[p])
			continue
		}
		got, want := laplaceRules[p], fresh[p]
		if len(got.u) != len(want.U) {
			t.Errorf("p=%d: %d nodes checked in, the generator makes %d", p, len(got.u), len(want.U))
			continue
		}
		for k := range got.u {
			if !near(got.u[k], want.U[k]) || !near(got.w[k], want.W[k]) || got.m[k] != want.M[k] {
				t.Errorf("p=%d node %d: checked in (u %v, w %v, m %d), generated (%v, %v, %d)",
					p, k, got.u[k], got.w[k], got.m[k], want.U[k], want.W[k], want.M[k])
			}
		}
	}
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-13*math.Max(math.Abs(a), math.Abs(b)) }

// At six digits the Laplace rule carries the whole S→M→I→I→L→T pipeline to
// 1e-6 in every direction, the worst list-2 offsets included.
func TestPlaneWaveLaplaceAtSixDigits(t *testing.T) {
	k := NewLaplace(OrderForDigits(6))
	k.Prepare(1.0, 3)
	offsets := []struct{ dx, dy, dz int32 }{
		{0, 0, 2}, {0, 0, -2}, {0, 2, 0}, {0, -2, 0}, {2, 0, 0}, {-2, 0, 0},
		{2, 2, 2}, {3, 3, 3}, {3, 3, 2}, {-3, 2, 3}, {1, 1, 2}, {0, 3, 2}, {2, -1, 0},
	}
	for _, o := range offsets {
		if _, ok := geom.DirectionOf(o.dx, o.dy, o.dz); !ok {
			continue
		}
		if e := runPW(t, k, 2, 0.25, o.dx, o.dy, o.dz, 37); e > 1e-6 {
			t.Errorf("offset (%d,%d,%d): rel err %.2e > 1e-6", o.dx, o.dy, o.dz, e)
		}
	}
}
