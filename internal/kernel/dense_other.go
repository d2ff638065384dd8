//go:build !amd64 || purego

package kernel

// Without the assembly the portable dense loops are the only binding.
const bestDense = denseGo

//dashmm:noalloc
func applyOn(_ denseLoop, tab []complex128, ins, outs [][]complex128) { applyGo(tab, ins, outs) }

func dotOn(_ denseLoop, p, s []complex128) (a, b complex128) { return dotGo(p, s) }
