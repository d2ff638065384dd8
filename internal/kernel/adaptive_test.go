package kernel

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// List-3 geometry (paper Fig. 1b): a small source box Bs whose parent is
// adjacent to the leaf target box Bt, but Bs itself is well separated from
// Bt. The multipole of Bs is evaluated directly at the target points (M->T)
// across a separation of only one fine box — the weakest separation ratio
// in the method.
func TestM2TListThreeGeometry(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, tc := range kernels(t) {
		fine := 0.125 // source box side (one level deeper than the target)
		sc := geom.Point{X: 0.5, Y: 0.5, Z: 0.5}
		spts := randBox(rng, sc, fine, 20)
		q := randCharges(rng, 20)
		m := make([]complex128, tc.k.MLSize())
		tc.k.S2M(sc, spts, q, m)
		// Leaf target box of twice the side, separated by one fine box.
		tcenter := sc.Add(geom.Point{X: 2.5 * fine, Y: 0.5 * fine, Z: -0.5 * fine})
		tpts := randBox(rng, tcenter, 2*fine, 20)
		pot := make([]float64, len(tpts))
		tc.k.M2T(sc, m, tpts, pot)
		want := direct(tc.k, spts, q, tpts)
		// The list-3 ratio sqrt(3)/2 : 2 holds only box-to-box; points in
		// the big target box can come within one fine box of the source, so
		// accept a slightly looser tolerance than the list-2 paths.
		if e := relErr(pot, want); e > 5e-3 {
			t.Errorf("%s: list-3 M2T rel err %.2e", tc.name, e)
		}
	}
}

// List-4 geometry: a coarse leaf source box adjacent to the target's parent
// but separated from the target box itself; its points are converted
// directly into the target's local expansion (S->L).
func TestS2LListFourGeometry(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for _, tc := range kernels(t) {
		coarse := 0.25
		fine := 0.125
		// Coarse source box.
		sc := geom.Point{X: 0.5, Y: 0.5, Z: 0.5}
		spts := randBox(rng, sc, coarse, 25)
		q := randCharges(rng, 25)
		// Fine target box separated by one fine box from the coarse box's
		// face.
		tcenter := sc.Add(geom.Point{X: coarse/2 + 1.5*fine, Y: 0.25 * fine, Z: -0.25 * fine})
		tpts := randBox(rng, tcenter, fine, 20)
		l := make([]complex128, tc.k.MLSize())
		tc.k.S2L(tcenter, spts, q, l)
		pot := make([]float64, len(tpts))
		tc.k.L2T(tcenter, l, tpts, pot)
		want := direct(tc.k, spts, q, tpts)
		if e := relErr(pot, want); e > 5e-3 {
			t.Errorf("%s: list-4 S2L rel err %.2e", tc.name, e)
		}
	}
}

// The translation matrix cache must produce results identical to the
// reference engine's projection (same operator, different evaluation
// strategy).
func TestMatrixCacheMatchesDirectTranslate(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, tc := range kernels(t) {
		b := tc.k.(*base)
		childSide := 0.125
		from := geom.Point{X: 0.4, Y: 0.6, Z: 0.5}
		to := from.Add(geom.Point{X: childSide / 2, Y: -childSide / 2, Z: childSide / 2})
		in := make([]complex128, tc.k.MLSize())
		for i := range in {
			in[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		viaCache := make([]complex128, tc.k.MLSize())
		tc.k.M2M(from, to, childSide, in, viaCache)
		// The reference engine's projection (reference_test.go).
		directOut := packML(b.p, newRefEngine(tc.k).translate(from, to, b.aM2M*2*childSide, unpackML(b.p, in), b.radOut, b.radOut))
		for i := range viaCache {
			if cAbs(viaCache[i]-directOut[i]) > 1e-9*(1+cAbs(directOut[i])) {
				t.Fatalf("%s: cache mismatch at %d: %v vs %v", tc.name, i, viaCache[i], directOut[i])
			}
		}
	}
}
