//go:build !amd64 || purego

package kernel

import "repro/internal/geom"

// Without the assembly every kernel binds its portable pair loop.
const bestLaplacePair, bestYukawaPair = laplaceGo, yukawaGo

func pairsOn(l pairLoop, lambda float64, src []geom.Point, q []float64, blk *pairBlock) {
	if l == yukawaGo {
		yukawaPairs(lambda, src, q, blk)
		return
	}
	laplacePairs(src, q, blk)
}
