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

// tileOn runs the named dense kernel's tile: ys[t][:h] += A xs[t][:k] for
// tileRHS right-hand sides and the h x k block A of up to two panels' rows
// (h ≤ tileRows): p0 its first min(h, panelRows) rows and p1 the rest, each
// column-major. The AVX-512 tile also prefetches k cache lines from pf into
// L2: the caller's next rows, which nothing here dereferences.
//
//dashmm:noalloc
func tileOn(l denseLoop, p0, p1 []float64, pf uintptr, h, k int, xs, ys *[tileRHS][]float64) {
	if l == denseGo {
		tileGo(p0, p1, h, k, xs, ys)
		return
	}
	h0 := min(h, panelRows)
	_ = p0[h0*k-1] // the assembly trusts the lengths
	b := &p0[0]
	if h > h0 {
		b = &p1[:(h-h0)*k][0]
	}
	var px, py [tileRHS]*float64
	for t := range xs {
		px[t], py[t] = &xs[t][:k][0], &ys[t][:h][0]
	}
	if l == denseAVX512 {
		denseTileAVX512(&p0[0], b, pf, h, k, &px, &py)
		return
	}
	denseTileAVX2(&p0[0], h0, k, &px, &py)
	if h > h0 {
		for t := range py {
			py[t] = &ys[t][h0]
		}
		denseTileAVX2(b, h-h0, k, &px, &py)
	}
}

// gemvOn runs the named dense kernel's GEMV: y[:m] += A x[:k].
//
//dashmm:noalloc
func gemvOn(l denseLoop, a []float64, m, k int, x, y []float64) {
	_, _, _ = a[m*k-1], x[k-1], y[m-1] // the assembly trusts the lengths
	switch l {
	case denseAVX512:
		denseGemvAVX512(&a[0], m, k, &x[0], &y[0])
	case denseAVX2:
		denseGemvAVX2(&a[0], m, k, &x[0], &y[0])
	default:
		gemvGo(a, m, k, x, y)
	}
}

// denseTileAVX512 is tileGo on up to two panels, eight float64 lanes per
// register, masked on a short panel.
//
//go:noescape
func denseTileAVX512(a, b *float64, pf uintptr, h, k int, xs, ys *[tileRHS]*float64)

// denseGemvAVX512 is gemvGo, eight float64 lanes per register.
//
//go:noescape
func denseGemvAVX512(a *float64, m, k int, x, y *float64)

// denseTileAVX2 and denseGemvAVX2 are the same four lanes per register,
// a panel's eight rows at a time; the tile takes one panel.
//
//go:noescape
func denseTileAVX2(a *float64, h, k int, xs, ys *[tileRHS]*float64)

//go:noescape
func denseGemvAVX2(a *float64, m, k int, x, y *float64)
