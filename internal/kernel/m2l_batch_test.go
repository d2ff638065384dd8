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
// same linear operator as the per-edge M2L, run by run, for both kernels —
// with the operator cache on (dense GEMM path) and off (projection
// fallback inside the batch).
func TestM2LBatchMatchesPerEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const side = 0.125
	for _, cacheOn := range []bool{true, false} {
		for _, tc := range kernels(t) {
			k := tc.k.(interface {
				BatchKernel
				SetM2LCache(bool)
			})
			k.SetM2LCache(cacheOn)
			sq := k.MLSize()
			ins := make([][]complex128, len(batchOffs))
			got := make([][]complex128, len(batchOffs))
			want := make([][]complex128, len(batchOffs))
			for i := range ins {
				ins[i] = make([]complex128, sq)
				for j := range ins[i] {
					ins[i][j] = complex(rng.NormFloat64(), rng.NormFloat64())
				}
				got[i] = make([]complex128, sq)
				want[i] = make([]complex128, sq)
			}
			k.M2LBatch(batchOffs, side, 3, ins, got)
			from := geom.Point{X: 0.5, Y: 0.5, Z: 0.5}
			for i, off := range batchOffs {
				to := from.Add(off.Scale(side))
				k.M2L(from, to, side, ins[i], want[i])
			}
			for i := range got {
				if e := maxCoefDiff(got[i], want[i]); e > 1e-12 {
					t.Errorf("%s cache=%v edge %d off %+v: batched vs per-edge rel diff %.2e",
						tc.name, cacheOn, i, batchOffs[i], e)
				}
			}
			k.SetM2LCache(true)
		}
	}
}

// TestM2LBatchAccumulates checks that the batched apply adds into the
// target expansions rather than overwriting them, like every operator.
func TestM2LBatchAccumulates(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, tc := range kernels(t) {
		k := tc.k.(BatchKernel)
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
// steady-state allocations for both the GEMM path and the projection
// fallback (cache off), matching the //dashmm:noalloc annotations.
func TestM2LBatchSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, cacheOn := range []bool{true, false} {
		for _, tc := range kernels(t) {
			k := tc.k.(interface {
				BatchKernel
				SetM2LCache(bool)
			})
			k.SetM2LCache(cacheOn)
			sq := k.MLSize()
			ins := make([][]complex128, len(batchOffs))
			outs := make([][]complex128, len(batchOffs))
			for i := range ins {
				ins[i] = make([]complex128, sq)
				for j := range ins[i] {
					ins[i][j] = complex(rng.NormFloat64(), rng.NormFloat64())
				}
				outs[i] = make([]complex128, sq)
			}
			k.M2LBatch(batchOffs, 0.125, 3, ins, outs) // warm cache + workspace
			allocs := testing.AllocsPerRun(10, func() {
				k.M2LBatch(batchOffs, 0.125, 3, ins, outs)
			})
			if allocs != 0 {
				t.Errorf("%s cache=%v: M2LBatch allocates %.1f/op in steady state", tc.name, cacheOn, allocs)
			}
			k.SetM2LCache(true)
		}
	}
}

// TestYukawaProjectedM2LNoAlloc pins the fix for the projected Yukawa M->L
// path, whose Bessel recurrence allocated its backward-recursion scratch on
// every call (208 B/op before the fixed-size buffer in sphharm).
func TestYukawaProjectedM2LNoAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	p := OrderForDigits(3)
	yuk := NewYukawa(p, 4.0)
	yuk.Prepare(1.0, 5)
	k := yuk.(interface {
		Kernel
		SetM2LCache(bool)
	})
	k.SetM2LCache(false)
	defer k.SetM2LCache(true)
	m := make([]complex128, k.MLSize())
	for i := range m {
		m[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	l := make([]complex128, k.MLSize())
	from := geom.Point{X: 0.5, Y: 0.5, Z: 0.5}
	to := from.Add(geom.Point{X: 0.25, Y: 0.125, Z: -0.125})
	k.M2L(from, to, 0.125, m, l) // warm the workspace pool
	allocs := testing.AllocsPerRun(10, func() {
		k.M2L(from, to, 0.125, m, l)
	})
	if allocs != 0 {
		t.Errorf("projected Yukawa M2L allocates %.1f/op in steady state", allocs)
	}
}
