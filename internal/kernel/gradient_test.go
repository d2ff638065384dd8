package kernel

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// directGrad computes the reference gradient by the analytic pointwise
// derivative.
func directGrad(k Kernel, spts []geom.Point, q []float64, tpts []geom.Point) []geom.Point {
	out := make([]geom.Point, len(tpts))
	b := k.(*base)
	for ti, t := range tpts {
		for si, s := range spts {
			g := b.DirectGrad(t, s)
			out[ti] = out[ti].Add(g.Scale(q[si]))
		}
	}
	return out
}

func gradRelErr(got, want []geom.Point) float64 {
	var num, den float64
	for i := range got {
		if d := got[i].Sub(want[i]).Norm(); d > num {
			num = d
		}
		if m := want[i].Norm(); m > den {
			den = m
		}
	}
	return num / den
}

func TestS2TGradMatchesAnalytic(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, tc := range kernels(t) {
		k := tc.k
		spts := randBox(rng, geom.Point{X: 0.3, Y: 0.3, Z: 0.3}, 0.2, 20)
		q := randCharges(rng, 20)
		tpts := randBox(rng, geom.Point{X: 0.7, Y: 0.6, Z: 0.4}, 0.2, 15)
		pot := make([]float64, len(tpts))
		grad := make([]geom.Point, len(tpts))
		k.S2TGrad(spts, q, tpts, pot, grad)
		want := directGrad(k, spts, q, tpts)
		if e := gradRelErr(grad, want); e > 1e-12 {
			t.Errorf("%s: S2TGrad rel err %.2e", tc.name, e)
		}
		// And the potential part must equal the plain S2T on the float64
		// pair loop (S2TGrad is float64 whatever loop S2T binds).
		pot2 := make([]float64, len(tpts))
		S2TFloat64(k, spts, q, tpts, pot2)
		for i := range pot {
			if math.Abs(pot[i]-pot2[i]) > 1e-13*math.Abs(pot2[i]) {
				t.Fatalf("%s: potential drift in S2TGrad", tc.name)
			}
		}
		// The bound S2T, float32 where the CPU and order allow, within its
		// own bound of that.
		pot3 := make([]float64, len(tpts))
		k.S2T(spts, q, tpts, pot3)
		within32(t, tc.name, pot3, pot, allow32(k.(*base), []P2PChunk{{Pts: spts, Q: q}}, tpts))
	}
}

func TestM2TGradAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for _, tc := range kernels(t) {
		k := tc.k
		c := geom.Point{X: 0.5, Y: 0.5, Z: 0.5}
		spts := randBox(rng, c, 0.25, 30)
		q := randCharges(rng, 30)
		tpts := randBox(rng, c.Add(geom.Point{X: 0.5, Y: -0.25, Z: 0.25}), 0.25, 15)
		m := make([]complex128, k.MLSize())
		k.S2M(c, spts, q, m)
		pot := make([]float64, len(tpts))
		grad := make([]geom.Point, len(tpts))
		k.M2TGrad(c, m, tpts, pot, grad)
		want := directGrad(k, spts, q, tpts)
		if e := gradRelErr(grad, want); e > 3e-3 {
			t.Errorf("%s: M2TGrad rel err %.2e", tc.name, e)
		}
	}
}

func TestL2TGradAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	for _, tc := range kernels(t) {
		k := tc.k
		c := geom.Point{X: 0.5, Y: 0.5, Z: 0.5}
		spts := randBox(rng, c.Add(geom.Point{X: -0.5, Y: 0.5, Z: 0.25}), 0.25, 30)
		q := randCharges(rng, 30)
		tpts := randBox(rng, c, 0.25, 15)
		l := make([]complex128, k.MLSize())
		k.S2L(c, spts, q, l)
		pot := make([]float64, len(tpts))
		grad := make([]geom.Point, len(tpts))
		k.L2TGrad(c, l, tpts, pot, grad)
		want := directGrad(k, spts, q, tpts)
		if e := gradRelErr(grad, want); e > 3e-3 {
			t.Errorf("%s: L2TGrad rel err %.2e", tc.name, e)
		}
	}
}
