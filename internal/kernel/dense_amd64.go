//go:build !purego

package kernel

// bestDense is the fastest dense kernel this CPU and operating system run,
// bound by the pair loops' probe (p2p_amd64.go).
var bestDense = probeDense()

func probeDense() denseLoop {
	switch f := cpuVector; {
	case f.avx512:
		return denseAVX512
	case f.avx2 && f.fma:
		return denseAVX2
	}
	return denseGo
}

// applyOn runs the named dense kernel's apply: outs[r] += T ins[r].
//
//dashmm:noalloc
func applyOn(l denseLoop, tab []complex128, ins, outs [][]complex128) {
	if l == denseGo || len(ins) == 0 {
		applyGo(tab, ins, outs)
		return
	}
	cols, rows := len(ins[0]), len(outs[0])
	tab = tab[:2*rows*cols] // the assembly trusts the lengths
	r := 0
	for ; r+2 <= len(ins); r += 2 {
		in0, in1, out0, out1 := ins[r][:cols], ins[r+1][:cols], outs[r][:rows], outs[r+1][:rows]
		if l == denseAVX512 {
			denseApply2AVX512(tab, in0, in1, out0, out1)
		} else {
			denseApply2AVX2(tab, in0, in1, out0, out1)
		}
	}
	if r < len(ins) {
		if l == denseAVX512 {
			denseApplyAVX512(tab, ins[r][:cols], outs[r][:rows])
		} else {
			denseApplyAVX2(tab, ins[r][:cols], outs[r][:rows])
		}
	}
}

// dotOn runs the named dense kernel's dot: Σ p_q Re s_q and Σ p_q Im s_q
// over q < len(p).
func dotOn(l denseLoop, p, s []complex128) (a, b complex128) {
	s = s[:len(p)] // the assembly trusts the lengths
	switch l {
	case denseAVX512:
		return denseDotAVX512(p, s)
	case denseAVX2:
		return denseDotAVX2(p, s)
	}
	return dotGo(p, s)
}

// denseApplyAVX512 is applyGo for one right-hand side, eight float64 lanes
// at a time: out[i] += Σ_j a_ij Re in[j] + b_ij Im in[j] for i < len(out),
// j < len(in), over tab's leading 2·len(out)·len(in) elements.
//
//go:noescape
func denseApplyAVX512(tab, in, out []complex128)

// denseApply2AVX512 is the same for two right-hand sides of equal shape
// sharing each table load.
//
//go:noescape
func denseApply2AVX512(tab, in0, in1, out0, out1 []complex128)

// denseApplyAVX2 and denseApply2AVX2 are the same four lanes at a time.
//
//go:noescape
func denseApplyAVX2(tab, in, out []complex128)

//go:noescape
func denseApply2AVX2(tab, in0, in1, out0, out1 []complex128)

// denseDotAVX512 is dotGo eight lanes at a time, len(s) = len(p).
//
//go:noescape
func denseDotAVX512(p, s []complex128) (a, b complex128)

// denseDotAVX2 is the same four lanes at a time.
//
//go:noescape
func denseDotAVX2(p, s []complex128) (a, b complex128)
