package main

import (
	"math"
	"math/rand"
	"sync"

	"repro/internal/geom"
)

// The oracle: exact O(N) direct summation at a seeded sample of targets,
// written here so the reference never comes from the program under test.
// Coincident points contribute nothing, the program's documented
// self-interaction convention.

// directAt sums G(|t-s|) q over all sources for one target.
func directAt(yukawa bool, lambda float64, src []geom.Point, q []float64, t geom.Point) float64 {
	var acc float64
	for i, s := range src {
		dx, dy, dz := t.X-s.X, t.Y-s.Y, t.Z-s.Z
		r2 := dx*dx + dy*dy + dz*dz
		if r2 == 0 {
			continue
		}
		r := math.Sqrt(r2)
		if yukawa {
			acc += q[i] * math.Exp(-lambda*r) / r
		} else {
			acc += q[i] / r
		}
	}
	return acc
}

// sampleTargets draws the seeded target sample a result is checked at.
func sampleTargets(n int, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	k := checkTargets
	if k > n {
		k = n
	}
	idx := make([]int, k)
	for i := range idx {
		idx[i] = rng.Intn(n)
	}
	return idx
}

// relL2 is the relative L2 error against direct summation of vals, the
// potentials a result holds at the sampled targets idx.
func (w *workload) relL2(vals []float64, src, tgt []geom.Point, q []float64, idx []int) float64 {
	if len(vals) != len(idx) || len(idx) == 0 {
		return math.Inf(1)
	}
	exact := make([]float64, len(idx))
	var wg sync.WaitGroup
	for lane := 0; lane < workloadCores; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for i := lane; i < len(idx); i += workloadCores {
				exact[i] = directAt(w.Yukawa, w.Lambda, src, q, tgt[idx[i]])
			}
		}(lane)
	}
	wg.Wait()
	var num, den float64
	for i := range idx {
		d := vals[i] - exact[i]
		num += d * d
		den += exact[i] * exact[i]
	}
	if den == 0 || math.IsNaN(num) {
		return math.Inf(1)
	}
	return math.Sqrt(num / den)
}
