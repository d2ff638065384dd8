// Package baseline provides the comparison points of the evaluation: the
// exact O(N^2) direct summation (the accuracy oracle and the naive
// comparator HMMs are measured against) and helpers for sampling it when
// the full quadratic sum is too slow.
package baseline

import (
	"sync"

	"repro/internal/geom"
	"repro/internal/kernel"
)

// Direct computes the exact potentials of every target due to every source
// with the given kernel, splitting the target range across `workers`
// goroutines. It runs the kernel's float64 pair loop (kernel.S2TFloat64)
// also where the kernel's own S2T binds a float32 one. Coincident points
// are skipped, matching the library's self-interaction convention.
func Direct(k kernel.Kernel, spts []geom.Point, q []float64, tpts []geom.Point, workers int) []float64 {
	if workers <= 0 {
		workers = 1
	}
	pot := make([]float64, len(tpts))
	var wg sync.WaitGroup
	chunk := (len(tpts) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		if lo >= len(tpts) {
			break
		}
		hi := lo + chunk
		if hi > len(tpts) {
			hi = len(tpts)
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			kernel.S2TFloat64(k, spts, q, tpts[lo:hi], pot[lo:hi])
		}(lo, hi)
	}
	wg.Wait()
	return pot
}

// DirectSample computes the exact potential at the given target indices
// only, returning a map from index to potential. It is the standard
// accuracy-checking tool for large N.
func DirectSample(k kernel.Kernel, spts []geom.Point, q []float64, tpts []geom.Point, idx []int) map[int]float64 {
	out := make(map[int]float64, len(idx))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, ti := range idx {
		wg.Add(1)
		go func(ti int) {
			defer wg.Done()
			var acc float64
			t := tpts[ti]
			for si, sp := range spts {
				r := t.Dist(sp)
				if r == 0 {
					continue
				}
				acc += q[si] * k.Direct(t, sp)
			}
			mu.Lock()
			out[ti] = acc
			mu.Unlock()
		}(ti)
	}
	wg.Wait()
	return out
}
