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
// coefficient by coefficient against the per-edge table apply and against
// the projection the tables tabulate, computed by the full-layout reference
// engine and cut to each offset's block (referenceM2L).
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

// waveBlock draws n packed M expansions and n half waves of the level, with
// zeroed outputs of the matching shapes for M2IBatch and I2LBatch.
func waveBlock(rng *rand.Rand, k Kernel, level, n int) (ms, xs, ws, ls [][]complex128) {
	for range n {
		ms = append(ms, randomML(rng, k))
		xs = append(xs, make([]complex128, k.ISize(level)))
		w := make([]complex128, k.ISize(level))
		for j := range w {
			w[j] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		ws = append(ws, w)
		ls = append(ls, make([]complex128, k.MLSize()))
	}
	return ms, xs, ws, ls
}

// TestWaveBatchAccumulates checks that the batched plane-wave applies add
// into their outputs rather than overwriting them, like every operator.
func TestWaveBatchAccumulates(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	const level = 3
	for _, tc := range kernels(t) {
		k := tc.k
		ms, once, ws, lOnce := waveBlock(rng, k, level, 3)
		_, twice, _, lTwice := waveBlock(rng, k, level, 3)
		k.M2IBatch(geom.North, level, ms, once)
		k.I2LBatch(geom.North, level, ws, lOnce)
		for range 2 {
			k.M2IBatch(geom.North, level, ms, twice)
			k.I2LBatch(geom.North, level, ws, lTwice)
		}
		for r := range ms {
			for _, v := range [][]complex128{twice[r], lTwice[r]} {
				for j := range v {
					v[j] /= 2
				}
			}
			if e := maxCoefDiff(twice[r], once[r]); e > 1e-14 {
				t.Errorf("%s rhs %d: M2IBatch does not accumulate: rel diff %.2e", tc.name, r, e)
			}
			if e := maxCoefDiff(lTwice[r], lOnce[r]); e > 1e-14 {
				t.Errorf("%s rhs %d: I2LBatch does not accumulate: rel diff %.2e", tc.name, r, e)
			}
		}
	}
}

// TestWaveBatchSteadyStateAllocs gates the batched plane-wave applies at
// zero steady-state allocations, matching their //dashmm:noalloc
// annotations.
func TestWaveBatchSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const level = 3
	for _, tc := range kernels(t) {
		k := tc.k
		ms, xs, ws, ls := waveBlock(rng, k, level, 5)
		for name, f := range map[string]func(){
			"M2IBatch": func() { k.M2IBatch(geom.West, level, ms, xs) },
			"I2LBatch": func() { k.I2LBatch(geom.West, level, ws, ls) },
		} {
			f() // build the tables
			if allocs := testing.AllocsPerRun(10, f); allocs != 0 {
				t.Errorf("%s: %s allocates %.1f/op in steady state", tc.name, name, allocs)
			}
		}
	}
}

// TestYukawaBesselRecursionNoAlloc pins the fix for the Yukawa Bessel
// recurrence, which allocated its backward-recursion scratch on every call
// (208 B/op before the fixed-size buffer in sphharm). The L->T gradient runs
// the scalar recurrence seven times per target on every call, on every
// binding.
func TestYukawaBesselRecursionNoAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	p := OrderForDigits(3)
	k := NewYukawa(p, 4.0)
	k.Prepare(1.0, 5)
	l := randomML(rng, k)
	c := geom.Point{X: 0.5, Y: 0.5, Z: 0.5}
	tpts := randBox(rng, c, 0.125, 8)
	pot, grad := make([]float64, len(tpts)), make([]geom.Point, len(tpts))
	k.L2TGrad(c, l, tpts, pot, grad) // warm the workspace pool
	allocs := testing.AllocsPerRun(10, func() {
		k.L2TGrad(c, l, tpts, pot, grad)
	})
	if allocs != 0 {
		t.Errorf("Yukawa L2TGrad allocates %.1f/op in steady state", allocs)
	}
}
