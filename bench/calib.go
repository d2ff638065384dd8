package main

import (
	"math"
	"sync"
	"time"
)

// The calibration loop. FROZEN: every calibrated number ever reported by
// this benchmark is a multiple of this loop's wall time, so changing the
// loop, its sizes or calibRefS silently rescales every baseline. Do not
// edit after the PR that introduced it.
//
// The box this runs on drifts (neighbours, frequency, memory contention):
// back-to-back medians of the same warm evaluation differ by 5-10%, and
// for minutes at a time by 45%. A fixed amount of work timed immediately
// before and after each sample drifts with it, so the ratio is steady
// where the raw time is not (README, "Noise discipline").
//
// The loop is a miniature of the two inner loops every workload here
// spends its time in, in roughly their proportions: a 1/sqrt pair loop
// over an L1-resident point set (the near field and the trigonometry of
// the plane-wave shifts: compute-bound) and dense complex matrix-vector
// products streaming operator tables larger than L2 (M2L, M2I, I2L:
// bandwidth-bound). The second part matters: a first version that was 93%
// compute-bound moved 11% in an episode that slowed the sphere workload
// by 45%.
const (
	// calibRefS is the loop's wall time on the reference box when idle
	// (median of 200 runs, 2 goroutines). A calibrated second is a second
	// of that box.
	calibRefS = 0.0680

	calibPoints = 700 // 700 x 3 float64 = 16.8 KB, L1-resident
	calibPasses = 26  // pair-loop passes: about two thirds of the loop
	calibDim    = 100 // operator tables are 100 x 100 complex128 = 160 KB, the size of a p=9 M2L matrix
	calibTables = 48  // 7.7 MB per goroutine: beyond L2, as the programs' tables are
	calibRounds = 40  // sweeps over all tables: a good third of the loop
	calibEps    = 1e-9
)

// calibrator owns the loop's arrays: one private set per goroutine, so
// the goroutines share nothing but the memory system.
type calibrator struct {
	lanes []calibLane
	sink  float64
}

type calibLane struct {
	x, y, z []float64
	tables  []complex128
	vec     []complex128
}

// newCalibrator sizes the loop for a workload that keeps `cores` cores
// busy: the loop must load the machine the way the sample does, or
// contention would not show in it.
func newCalibrator(cores int) *calibrator {
	c := &calibrator{lanes: make([]calibLane, cores)}
	for l := range c.lanes {
		ln := &c.lanes[l]
		ln.x = make([]float64, calibPoints)
		ln.y = make([]float64, calibPoints)
		ln.z = make([]float64, calibPoints)
		for i := 0; i < calibPoints; i++ {
			// A fixed low-discrepancy fill: no RNG, no seed, no input.
			ln.x[i] = math.Mod(float64(i)*0.6180339887498949, 1)
			ln.y[i] = math.Mod(float64(i)*0.7548776662466927, 1)
			ln.z[i] = math.Mod(float64(i)*0.5698402909980532, 1)
		}
		ln.tables = make([]complex128, calibTables*calibDim*calibDim)
		for i := range ln.tables {
			ln.tables[i] = complex(float64(i&255)*1e-3, float64(i&127)*-1e-3)
		}
		ln.vec = make([]complex128, calibDim)
		for i := range ln.vec {
			ln.vec[i] = complex(1/float64(i+1), 0.5/float64(i+2))
		}
	}
	return c
}

func (ln *calibLane) run() float64 {
	var acc float64
	for p := 0; p < calibPasses; p++ {
		for i := 0; i < calibPoints; i++ {
			xi, yi, zi := ln.x[i], ln.y[i], ln.z[i]
			var a float64
			for j := 0; j < calibPoints; j++ {
				dx, dy, dz := xi-ln.x[j], yi-ln.y[j], zi-ln.z[j]
				a += 1 / math.Sqrt(dx*dx+dy*dy+dz*dz+calibEps)
			}
			acc += a
		}
	}
	var out complex128
	for r := 0; r < calibRounds; r++ {
		for t := 0; t < calibTables; t++ {
			mx := ln.tables[t*calibDim*calibDim : (t+1)*calibDim*calibDim]
			for i := 0; i < calibDim; i++ {
				row := mx[i*calibDim : (i+1)*calibDim]
				var a complex128
				for j, v := range ln.vec {
					a += row[j] * v
				}
				out += a
			}
		}
	}
	return acc + real(out)
}

// sample is one calibration reading: the median of three back-to-back
// runs of the loop, because a single 70 ms run is itself noisy on this box
// (quartiles 3.7% either side of its median when idle) and that noise
// would be multiplied into every sample it brackets.
func (c *calibrator) sample() float64 {
	return median([]float64{c.once(), c.once(), c.once()})
}

// once runs the loop on every lane concurrently and returns its wall time
// in seconds.
func (c *calibrator) once() float64 {
	var wg sync.WaitGroup
	sums := make([]float64, len(c.lanes))
	t0 := time.Now()
	for l := range c.lanes {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			sums[l] = c.lanes[l].run()
		}(l)
	}
	wg.Wait()
	d := time.Since(t0).Seconds()
	for _, s := range sums {
		c.sink += s
	}
	return d
}

// calibrated converts a raw duration measured between two calibration
// samples into reference-box seconds.
func calibrated(raw, calibBefore, calibAfter float64) float64 {
	return raw * calibRefS / ((calibBefore + calibAfter) / 2)
}
