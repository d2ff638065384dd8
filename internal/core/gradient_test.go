package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/kernel"
	"repro/internal/points"
)

// directGradSample computes reference gradients at sampled targets.
func directGradSample(k kernel.Kernel, spts []geom.Point, q []float64, tpts []geom.Point, idx []int) map[int]geom.Point {
	out := make(map[int]geom.Point, len(idx))
	for _, ti := range idx {
		t := tpts[ti]
		var g geom.Point
		for si, s := range spts {
			d := t.Sub(s)
			r := d.Norm()
			if r == 0 {
				continue
			}
			// Numerically differentiate the pointwise kernel; exact enough
			// as an independent oracle.
			h := 1e-7 * r
			f := q[si] * (k.Direct(t.Add(d.Scale(h/r)), s) - k.Direct(t.Sub(d.Scale(h/r)), s)) / (2 * h)
			g = g.Add(d.Scale(f / r))
		}
		out[ti] = g
	}
	return out
}

func TestGradientEndToEnd(t *testing.T) {
	if raceEnabled {
		t.Skip("sequential accuracy gate: no concurrency to instrument, ~10x slower under race")
	}
	const n = 4000
	p := kernel.OrderForDigits(3)
	for _, mk := range []func() kernel.Kernel{
		func() kernel.Kernel { return kernel.NewLaplace(p) },
		func() kernel.Kernel { return kernel.NewLaplaceFloat64(p) },
		func() kernel.Kernel { return kernel.NewYukawa(p, 4.0) },
	} {
		k := mk()
		sp := points.Generate(points.Cube, n, 81)
		tp := points.Generate(points.Cube, n, 82)
		q := points.Charges(n, 83)
		plan, err := NewPlan(sp, tp, k, Options{Threshold: 40})
		if err != nil {
			t.Fatal(err)
		}
		pot, grad, err := plan.EvaluateSequentialGrad(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(grad) != n {
			t.Fatalf("got %d gradients", len(grad))
		}
		rng := rand.New(rand.NewSource(84))
		idx := sampleIdx(rng, n, 25)
		ref := directGradSample(k, sp, q, tp, idx)
		var num, den float64
		for _, i := range idx {
			if d := grad[i].Sub(ref[i]).Norm(); d > num {
				num = d
			}
			if m := ref[i].Norm(); m > den {
				den = m
			}
		}
		if num/den > 2e-3 {
			t.Errorf("%s: gradient rel err %.2e", k.Name(), num/den)
		}
		// Potentials from the gradient path must match the plain path.
		pot2, err := plan.EvaluateSequential(q)
		if err != nil {
			t.Fatal(err)
		}
		// The gradient path's near field is float64 whatever loop S2T
		// binds: a float32 one is held to f32Tol of the largest potential.
		scale := func(i int) float64 { return math.Max(1, math.Abs(pot2[i])) }
		tol := 1e-12
		if metaTol(k, tol) != tol {
			tol, scale = f32Tol, func(int) float64 { return maxAbs(pot2) }
		}
		for i := range pot {
			if math.Abs(pot[i]-pot2[i]) > tol*scale(i) {
				t.Fatalf("%s, %s pair loop: potential drift in gradient path at %d: %v against %v", k.Name(), kernel.PairKernel(k), i, pot[i], pot2[i])
			}
		}
	}
}

func TestGradientParallelMatchesSequential(t *testing.T) {
	const n = 2500
	sp := points.Generate(points.Cube, n, 85)
	tp := points.Generate(points.Cube, n, 86)
	q := points.Charges(n, 87)
	k := kernel.NewLaplace(6)
	plan, err := NewPlan(sp, tp, k, Options{Threshold: 40})
	if err != nil {
		t.Fatal(err)
	}
	_, want, err := plan.EvaluateSequentialGrad(q)
	if err != nil {
		t.Fatal(err)
	}
	_, rep, err := plan.Evaluate(q, ExecOptions{Workers: 2, Gradient: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Gradients == nil {
		t.Fatal("no gradients returned")
	}
	assertSameGrad(t, rep.Gradients, want, 1e-9)
}

func TestNewtonThirdLawOnIdenticalEnsembles(t *testing.T) {
	// For an isolated self-interacting system, internal forces sum to zero
	// (momentum conservation): sum_i q_i * grad_i = 0 for the symmetric
	// kernel.
	const n = 3000
	pts := points.Generate(points.Plummer, n, 88)
	q := points.UnitCharges(n)
	k := kernel.NewLaplace(kernel.OrderForDigits(3))
	plan, err := NewPlan(pts, pts, k, Options{Threshold: 40})
	if err != nil {
		t.Fatal(err)
	}
	_, grad, err := plan.EvaluateSequentialGrad(q)
	if err != nil {
		t.Fatal(err)
	}
	var total geom.Point
	var scale float64
	for i := range grad {
		total = total.Add(grad[i].Scale(q[i]))
		scale += grad[i].Norm()
	}
	if total.Norm()/scale > 1e-4 {
		t.Errorf("net internal force %.2e of total force magnitude", total.Norm()/scale)
	}
}
