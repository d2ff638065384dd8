//go:build !amd64 || purego

package kernel

import "repro/internal/geom"

// Without the assembly every kernel binds its portable pair loop.
const bestLaplacePair = laplaceGo

func laplacePairsOn(_ pairLoop, src []geom.Point, q []float64, blk *pairBlock) {
	laplacePairs(src, q, blk)
}
