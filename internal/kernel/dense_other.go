//go:build !amd64 || purego

package kernel

// Without the assembly the portable dense loops are the only binding.
const bestDense = denseGo

//dashmm:noalloc
func tileOn(_ denseLoop, p0, p1 []float64, _ uintptr, h, k int, xs, ys *[tileRHS][]float64) {
	tileGo(p0, p1, h, k, xs, ys)
}

//dashmm:noalloc
func gemvOn(_ denseLoop, a []float64, m, k int, x, y []float64) { gemvGo(a, m, k, x, y) }
