//go:build !purego

package kernel

// The point block's assembly (point_amd64.s), by binding: l is denseAVX512
// or denseAVX2 (the portable binding never reaches here).

//dashmm:noalloc
func pointProjectOn(l denseLoop, p int, steps, cn []float64, pb *pointBlock) {
	if l == denseAVX512 {
		pointProjectAVX512(p, steps, cn, pb)
	} else {
		pointProjectAVX2(p, steps, cn, pb)
	}
}

//dashmm:noalloc
func pointEvalOn(l denseLoop, p int, steps []float64, coeff []complex128, pb *pointBlock) {
	if l == denseAVX512 {
		pointEvalAVX512(p, steps, coeff, pb)
	} else {
		pointEvalAVX2(p, steps, coeff, pb)
	}
}

//dashmm:noalloc
func pointMillerOn(l denseLoop, p, start int, scale []float64, pb *pointBlock) (over uint8) {
	if l == denseAVX512 {
		return pointMillerAVX512(p, start, scale, pb)
	}
	return pointMillerAVX2(p, start, scale, pb)
}

//dashmm:noalloc
func pointBesselKOn(l denseLoop, p int, scale []float64, pb *pointBlock) {
	if l == denseAVX512 {
		pointBesselKAVX512(p, scale, pb)
	} else {
		pointBesselKAVX2(p, scale, pb)
	}
}

// pointProjectAVX512 runs the Y_n^m recurrence, n <= p, at the block's eight
// unit vectors into pb.ylm and adds (q·c_n·rad_n)·conj(Y_n^m) to pb.acc:
// steps holds (a, b) per packed slot with K_0^0 in slot 0, cn the c_n.
//
//go:noescape
func pointProjectAVX512(p int, steps, cn []float64, pb *pointBlock)

// pointEvalAVX512 runs the recurrence into pb.ylm and sets pb.pot to
// Σ_n 2·rad_n·(½ Re c_n^0 Y_n^0 + Σ_{m>0} Re(c_n^m Y_n^m)), evalExpansion's
// sum in its order.
//
//go:noescape
func pointEvalAVX512(p int, steps []float64, coeff []complex128, pb *pointBlock)

// pointMillerAVX512 runs Miller's downward recurrence for i_n from start at
// x = 1/pb.inv per lane, normalises to pb.i0 and multiplies row n by
// scale[n] into pb.rad. over has bit i set when lane i passed 1e250.
//
//go:noescape
func pointMillerAVX512(p, start int, scale []float64, pb *pointBlock) (over uint8)

// pointBesselKAVX512 fills pb.rad with k_n(x)·scale[n], x = pb.xl, by
// BesselK's upward recurrence with the polynomial e^{-x}.
//
//go:noescape
func pointBesselKAVX512(p int, scale []float64, pb *pointBlock)

// The AVX2 forms are the same four lanes at a time.
//
//go:noescape
func pointProjectAVX2(p int, steps, cn []float64, pb *pointBlock)

//go:noescape
func pointEvalAVX2(p int, steps []float64, coeff []complex128, pb *pointBlock)

//go:noescape
func pointMillerAVX2(p, start int, scale []float64, pb *pointBlock) (over uint8)

//go:noescape
func pointBesselKAVX2(p int, scale []float64, pb *pointBlock)
