package kernel

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// batchOffs is a mixed offset sequence: maximal runs of repeated offsets
// (the GEMM path sees multi-RHS blocks) interleaved with singletons.
var batchOffs = []M2LOffset{
	{DX: 2, DY: 0, DZ: 0},
	{DX: 2, DY: 0, DZ: 0},
	{DX: 2, DY: 0, DZ: 0},
	{DX: -2, DY: 1, DZ: 1},
	{DX: 3, DY: 3, DZ: 3},
	{DX: 3, DY: 3, DZ: 3},
	{DX: 0, DY: -3, DZ: 2},
}

// TestM2LBatchMatchesPerEdge checks that the multi-RHS batched apply is the
// same linear operator as the per-edge M2L, run by run, for both kernels:
// coefficient by coefficient against the per-edge table apply and the
// full-layout reference engine, and in the field against the projection the
// tables tabulate (reached by an off-lattice side: see
// TestM2LCachedMatchesProjection).
func TestM2LBatchMatchesPerEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const side = 0.125
	from := geom.Point{X: 0.5, Y: 0.5, Z: 0.5}
	for _, tc := range kernels(t) {
		k := tc.k
		batch := func(input func() []complex128) (ins, outs [][]complex128) {
			for range batchOffs {
				ins = append(ins, input())
				outs = append(outs, make([]complex128, k.MLSize()))
			}
			k.M2LBatch(batchOffs, side, 3, ins, outs)
			return ins, outs
		}
		ins, got := batch(func() []complex128 { return randomML(rng, k) })
		boxIns, boxGot := batch(func() []complex128 { return boxML(rng, k, from, side) })
		for i, off := range batchOffs {
			to := from.Add(off.Scale(side))
			perEdge := make([]complex128, k.MLSize())
			k.M2L(from, to, side, ins[i], perEdge)
			if e := maxCoefDiff(got[i], perEdge); e > 1e-12 {
				t.Errorf("%s edge %d off %+v: batched vs per-edge rel diff %.2e", tc.name, i, off, e)
			}
			if e := maxCoefDiff(got[i], referenceM2L(k, from, to, side, ins[i])); e > 1e-12 {
				t.Errorf("%s edge %d off %+v: batched vs reference engine rel diff %.2e", tc.name, i, off, e)
			}
			projected := make([]complex128, k.MLSize())
			projectedM2L(t, k, from, to, side, boxIns[i], projected)
			if e := fieldDiff(rng, k, to, side, boxGot[i], projected); e > 1e-10 {
				t.Errorf("%s edge %d off %+v: batched vs projected field rel diff %.2e", tc.name, i, off, e)
			}
		}
	}
}

// TestM2LBatchAccumulates checks that the batched apply adds into the
// target expansions rather than overwriting them, like every operator.
func TestM2LBatchAccumulates(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, tc := range kernels(t) {
		k := tc.k
		sq := k.MLSize()
		in := make([]complex128, sq)
		for j := range in {
			in[j] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		offs := []M2LOffset{{DX: 2, DY: 0, DZ: 0}}
		once := make([]complex128, sq)
		twice := make([]complex128, sq)
		k.M2LBatch(offs, 0.125, 3, [][]complex128{in}, [][]complex128{once})
		k.M2LBatch(offs, 0.125, 3, [][]complex128{in}, [][]complex128{twice})
		k.M2LBatch(offs, 0.125, 3, [][]complex128{in}, [][]complex128{twice})
		for j := range twice {
			twice[j] /= 2
		}
		if e := maxCoefDiff(twice, once); e > 1e-14 {
			t.Errorf("%s: M2LBatch does not accumulate: rel diff %.2e", tc.name, e)
		}
	}
}

// TestM2LBatchSteadyStateAllocs gates the batched apply at zero
// steady-state allocations, matching its //dashmm:noalloc annotation.
func TestM2LBatchSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, tc := range kernels(t) {
		k := tc.k
		ins := make([][]complex128, len(batchOffs))
		outs := make([][]complex128, len(batchOffs))
		for i := range ins {
			ins[i] = randomML(rng, k)
			outs[i] = make([]complex128, k.MLSize())
		}
		k.M2LBatch(batchOffs, 0.125, 3, ins, outs) // build the tables
		allocs := testing.AllocsPerRun(10, func() {
			k.M2LBatch(batchOffs, 0.125, 3, ins, outs)
		})
		if allocs != 0 {
			t.Errorf("%s: M2LBatch allocates %.1f/op in steady state", tc.name, allocs)
		}
	}
}

// TestYukawaProjectedM2LNoAlloc pins the fix for the projected Yukawa M->L
// path, whose Bessel recurrence allocated its backward-recursion scratch on
// every call (208 B/op before the fixed-size buffer in sphharm). Projection
// is what an off-lattice offset gets.
func TestYukawaProjectedM2LNoAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	p := OrderForDigits(3)
	k := NewYukawa(p, 4.0)
	k.Prepare(1.0, 5)
	m := randomML(rng, k)
	l := make([]complex128, k.MLSize())
	from := geom.Point{X: 0.5, Y: 0.5, Z: 0.5}
	to := from.Add(geom.Point{X: 0.25, Y: 0.125, Z: -0.125})
	projectedM2L(t, k, from, to, 0.125, m, l) // warm the workspace pool
	allocs := testing.AllocsPerRun(10, func() {
		k.M2L(from, to, 0.125*(1+1e-8), m, l)
	})
	if allocs != 0 {
		t.Errorf("projected Yukawa M2L allocates %.1f/op in steady state", allocs)
	}
}
