//go:build !amd64 || purego

package kernel

// Without the assembly the point operators bind the portable loops, and the
// block's passes are never called.

func pointProjectOn(denseLoop, int, []float64, []float64, *pointBlock) {
	panic("kernel: no point block")
}

func pointEvalOn(denseLoop, int, []float64, []complex128, *pointBlock) {
	panic("kernel: no point block")
}

func pointMillerOn(denseLoop, int, int, []float64, *pointBlock) uint8 {
	panic("kernel: no point block")
}

func pointBesselKOn(denseLoop, int, []float64, *pointBlock) { panic("kernel: no point block") }
