//go:build !amd64 || purego

package kernel

import "repro/internal/geom"

// Without the assembly every kernel binds its portable pair loop.
const bestLaplacePair, bestLaplacePair32, bestYukawaPair, bestYukawaPair32 = laplaceGo, laplaceGo, yukawaGo, yukawaGo

// runs reports whether this build runs pair loop l: the portable ones only.
func (l pairLoop) runs() bool { return l == laplaceGo || l == yukawaGo }

func pairsOn(l pairLoop, lambda float64, src []geom.Point, q []float64, blk *pairBlock) {
	if l == yukawaGo {
		yukawaPairs(lambda, src, q, blk)
		return
	}
	laplacePairs(src, q, blk)
}

// pairs32On is never reached: no float32 loop binds in this build.
func pairs32On(pairLoop, float32, []src32, []geom.Point, *pairBlock) bool { return false }
