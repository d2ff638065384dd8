package kernel

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/sphharm"
)

// The dense kernels, each held to the portable loops. A form this CPU lacks
// is not run (under -tags purego or off amd64 only the portable one is).

// denseLoops lists the dense kernels this process can run: the probe returns
// the best one and each implies the ones before it.
func denseLoops() []denseLoop {
	var ls []denseLoop
	for l := denseGo; l <= bestDense; l++ {
		ls = append(ls, l)
	}
	return ls
}

// denseShapes are the row and column counts the oracles sweep: 1–17 reach
// every tail of both panel heights (2·rows mod 16 and mod 8) and every
// column count's parity, 55 is the packed M/L size at three digits, 268 a
// plane-wave length, 477 a longer one.
var denseShapes = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 55, 268, 477}

// fenced returns n random complex values inside a slice whose neighbours on
// both sides are NaN, so a kernel that reads past either end poisons its
// result, and the fence to check afterwards.
func fenced(rng *rand.Rand, n int) (x, all []complex128) {
	const pad = 8
	all = make([]complex128, n+2*pad)
	for i := range all {
		all[i] = complex(math.NaN(), math.NaN())
	}
	x = all[pad : pad+n : pad+n]
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x, all
}

// fenceIntact reports whether every element of all outside x is still NaN.
func fenceIntact(all []complex128, n int) bool {
	const pad = 8
	for i, v := range all {
		if (i < pad || i >= pad+n) && !(math.IsNaN(real(v)) && math.IsNaN(imag(v))) {
			return false
		}
	}
	return true
}

// closeTo reports whether got is want within the rounding of a sum of n
// terms whose magnitudes add up to mag, per real part: either summation
// order is within n·ε·mag of the exact sum.
func closeTo(got, want float64, n int, mag float64) bool {
	return math.Abs(got-want) <= 2*float64(n+1)*0x1p-52*mag
}

// packTable packs the rows x cols coefficients a_ij = a[i*cols+j] and
// b_ij = b[i*cols+j] into dst, 2·rows·cols elements, in the table layout
// (dense.go): R[2i][2j] = Re a_ij, R[2i][2j+1] = Re b_ij, R[2i+1][2j] =
// Im a_ij, R[2i+1][2j+1] = Im b_ij, placed by panelIndex.
func packTable(dst []complex128, rows, cols int, a, b []complex128) {
	r := floats(dst)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			at := func(ri, c int) *float64 { return &r[panelIndex(2*rows, 2*cols, ri, c)] }
			v, w := a[i*cols+j], b[i*cols+j]
			*at(2*i, 2*j), *at(2*i, 2*j+1), *at(2*i+1, 2*j), *at(2*i+1, 2*j+1) = real(v), real(w), imag(v), imag(w)
		}
	}
}

// checkApply runs l's apply of the table of the coefficients a and b
// (packTable) on nrhs right-hand sides, every slice fenced with NaN, and
// holds each output to the complex formula out_i += a_ij Re x_j + b_ij Im
// x_j within the rounding of its terms.
func checkApply(t *testing.T, rng *rand.Rand, l denseLoop, rows, cols, nrhs int, a, b []complex128) {
	t.Helper()
	tab, tabAll := fenced(rng, 2*rows*cols)
	packTable(tab, rows, cols, a, b)
	ins, outs := make([][]complex128, nrhs), make([][]complex128, nrhs)
	inAll, outAll := make([][]complex128, nrhs), make([][]complex128, nrhs)
	start := make([][]complex128, nrhs)
	for r := range ins {
		ins[r], inAll[r] = fenced(rng, cols)
		outs[r], outAll[r] = fenced(rng, rows)
		start[r] = append([]complex128(nil), outs[r]...)
	}
	// The apply is handed slices that run on into their fences: it must
	// read cols coefficients of each input and write rows of each output,
	// whatever the slices' lengths, as a block table of a longer vector
	// does.
	const pad = 8
	longIns, longOuts := make([][]complex128, nrhs), make([][]complex128, nrhs)
	for r := range ins {
		longIns[r], longOuts[r] = inAll[r][pad:], outAll[r][pad:]
	}
	applyOn(l, tab, rows, cols, longIns, longOuts)
	name := fmt.Sprintf("%v %dx%d, %d rhs", l, rows, cols, nrhs)
	if !fenceIntact(tabAll, 2*rows*cols) {
		t.Fatalf("%s: wrote outside the table", name)
	}
	for r := range outs {
		if !fenceIntact(inAll[r], cols) || !fenceIntact(outAll[r], rows) {
			t.Fatalf("%s: wrote outside the slices", name)
		}
		for i, got := range outs[r] {
			w := start[r][i]
			wr, wi := real(w), imag(w)
			magR, magI := math.Abs(wr), math.Abs(wi)
			for j, x := range ins[r] {
				aij, bij := a[i*cols+j], b[i*cols+j]
				tr, ti := real(aij)*real(x)+real(bij)*imag(x), imag(aij)*real(x)+imag(bij)*imag(x)
				wr, wi = wr+tr, wi+ti
				magR += math.Abs(real(aij)*real(x)) + math.Abs(real(bij)*imag(x))
				magI += math.Abs(imag(aij)*real(x)) + math.Abs(imag(bij)*imag(x))
			}
			if !closeTo(real(got), wr, 2*cols, magR) || !closeTo(imag(got), wi, 2*cols, magI) {
				t.Fatalf("%s: out[%d][%d] = %v, formula %v (term magnitudes %.3g, %.3g)", name, r, i, got, complex(wr, wi), magR, magI)
			}
		}
	}
}

// randomCoefs returns n random complex coefficients.
func randomCoefs(rng *rand.Rand, n int) []complex128 {
	v := make([]complex128, n)
	for i := range v {
		v[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return v
}

// TestDenseApplyMatchesPortable holds every bound apply, the portable one
// included, to the complex formula on every shape and on 1–9 right-hand
// sides (every remainder of a tile): accumulated into outputs that start
// nonzero, entry by entry within the rounding of its terms, and reading
// and writing nothing outside the table, the inputs and the outputs.
func TestDenseApplyMatchesPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, rows := range denseShapes {
		for _, cols := range denseShapes {
			a, b := randomCoefs(rng, rows*cols), randomCoefs(rng, rows*cols)
			for _, l := range denseLoops() {
				for nrhs := 1; nrhs <= 9; nrhs++ {
					if rows*cols > 4000 && nrhs != 1 && nrhs != 5 && nrhs != 9 {
						continue // the large shapes at one GEMV, one tile plus one, two plus one
					}
					checkApply(t, rng, l, rows, cols, nrhs, a, b)
				}
			}
		}
	}
}

// FuzzDenseApply holds every bound apply to the complex formula on an
// arbitrary shape and right-hand-side count.
func FuzzDenseApply(f *testing.F) {
	f.Add(int64(1), uint16(55), uint16(55), uint8(16))
	f.Add(int64(2), uint16(268), uint16(55), uint8(3))
	f.Add(int64(3), uint16(7), uint16(268), uint8(5))
	f.Add(int64(4), uint16(1), uint16(1), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, rows, cols uint16, nrhs uint8) {
		rows, cols, nrhs = 1+rows%300, 1+cols%300, 1+nrhs%17
		rng := rand.New(rand.NewSource(seed))
		a, b := randomCoefs(rng, int(rows)*int(cols)), randomCoefs(rng, int(rows)*int(cols))
		for _, l := range denseLoops() {
			checkApply(t, rng, l, int(rows), int(cols), int(nrhs), a, b)
		}
	})
}

// buildOperands packs the complex projector rows proj[i*nq+q] and samples
// samp[j*nq+q] the way denseTable's producers do: P panel-packed, S as
// real and imaginary planes.
func buildOperands(rows, cols, nq int, proj, samp []complex128) (p, s []float64) {
	p, s = make([]float64, 2*rows*nq), make([]float64, 2*cols*nq)
	for i := 0; i < rows; i++ {
		for q := 0; q < nq; q++ {
			setPanel(p, rows, nq, i, q, proj[i*nq+q])
		}
	}
	for j := 0; j < cols; j++ {
		for q, v := range samp[j*nq : (j+1)*nq] {
			s[2*j*nq+q], s[(2*j+1)*nq+q] = real(v), imag(v)
		}
	}
	return p, s
}

// TestDenseTableMatchesPortable holds every bound table build to the
// portable one on every shape and node count — odd ones included, which no
// apply reaches — entry by entry within the rounding of its terms.
func TestDenseTableMatchesPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, rows := range []int{1, 2, 7, 8, 9, 55, 268} {
		for _, cols := range []int{1, 2, 3, 8, 55} {
			for _, nq := range []int{1, 2, 3, 5, 338} {
				proj, samp := randomCoefs(rng, rows*nq), randomCoefs(rng, cols*nq)
				pp, ss := buildOperands(rows, cols, nq, proj, samp)
				want := denseTableOn(denseGo, rows, cols, pp, ss)
				for _, l := range denseLoops()[1:] {
					got := denseTableOn(l, rows, cols, pp, ss)
					g, w := floats(got), floats(want)
					for i := 0; i < 2*rows; i++ {
						p := proj[i/2*nq : (i/2+1)*nq]
						for c := 0; c < 2*cols; c++ {
							s := samp[c/2*nq : (c/2+1)*nq]
							var mag float64
							for q := range p {
								pv, sv := real(p[q]), real(s[q])
								if i%2 == 1 {
									pv = imag(p[q])
								}
								if c%2 == 1 {
									sv = imag(s[q])
								}
								mag += math.Abs(pv * sv)
							}
							at := panelIndex(2*rows, 2*cols, i, c)
							if !closeTo(g[at], w[at], nq, mag) {
								t.Fatalf("%v %dx%d, %d nodes: R[%d][%d] = %v, portable %v", l, rows, cols, nq, i, c, g[at], w[at])
							}
						}
					}
				}
			}
		}
	}
}

// TestDenseKernelNamesTheBinding: every built-in kernel reports the one
// process-wide binding; a kernel that is not built in runs no dense table.
func TestDenseKernelNamesTheBinding(t *testing.T) {
	for _, k := range []Kernel{NewLaplace(2), NewYukawa(2, 1)} {
		if got := DenseKernel(k); got != bestDense.String() {
			t.Errorf("%s: DenseKernel %q, bound %q", k.Name(), got, bestDense)
		}
	}
	if got := DenseKernel(struct{ Kernel }{NewLaplace(2)}); got != "go" {
		t.Errorf("wrapped kernel: DenseKernel %q, want go", got)
	}
}

// BenchmarkDense times every bound dense kernel on the benchmark's shapes
// at three digits, Laplace level 3: the M->L table of a face offset
// ((2,0,0): 55x55) and of a far one (order 5: its 21x21 block, applied to
// the same 55-coefficient vectors) per right-hand side alone and in a
// block of 16, the M->I (ISize x 55: 268 x 55 at three
// digits) and I->L (55 x 268)
// tables in cache, streamed (cycling through 64 distinct tables) and
// streamed in blocks of 16 right-hand sides (the executor's plane-wave
// batches), and one whole M->L and M->I table build (denseTable). It
// reports µs per operation and per right-hand side, and publishes nothing.
func BenchmarkDense(b *testing.B) {
	k := NewLaplace(OrderForDigits(3)).(*base)
	k.Prepare(1, 4)
	const level = 3
	ml, wave, nq := k.MLSize(), k.ISize(level), len(k.sph)
	rng := rand.New(rand.NewSource(1))
	random := func(n int) []complex128 {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		return x
	}
	const streamed = 64
	tables := func(rows, cols int) [][]complex128 {
		ts := make([][]complex128, streamed)
		for i := range ts {
			ts[i] = random(2 * rows * cols)
		}
		return ts
	}
	far := sphharm.TriSize(m2lOrder(k.p, M2LOffset{DX: 3, DY: 3, DZ: 3}))
	m2l, m2lFar, m2i, i2l := tables(ml, ml), tables(far, far), tables(wave, ml), tables(ml, wave)
	mIn, wIn := random(ml), random(wave)
	mOut, wOut := make([]complex128, ml), make([]complex128, wave)
	var block16In, block16Out, wave16In, wave16Out [][]complex128
	for range 16 {
		block16In, block16Out = append(block16In, random(ml)), append(block16Out, make([]complex128, ml))
		wave16In, wave16Out = append(wave16In, random(wave)), append(wave16Out, make([]complex128, wave))
	}
	m2lP, m2lS := buildOperands(ml, ml, nq, random(ml*nq), random(ml*nq))
	m2iP, m2iS := buildOperands(wave, ml, nq, random(wave*nq), random(ml*nq))
	for _, l := range denseLoops() {
		for _, c := range []struct {
			name       string
			tabs       [][]complex128
			rows, cols int
			ins, outs  [][]complex128
			stream     bool
		}{
			{"m2l", m2l, ml, ml, [][]complex128{mIn}, [][]complex128{mOut}, false},
			{"m2l_batch16", m2l, ml, ml, block16In, block16Out, false},
			{"m2l_far", m2lFar, far, far, [][]complex128{mIn}, [][]complex128{mOut}, false},
			{"m2l_far_batch16", m2lFar, far, far, block16In, block16Out, false},
			{"m2i", m2i, wave, ml, [][]complex128{mIn}, [][]complex128{wOut}, false},
			{"m2i_streamed", m2i, wave, ml, [][]complex128{mIn}, [][]complex128{wOut}, true},
			{"i2l", i2l, ml, wave, [][]complex128{wIn}, [][]complex128{mOut}, false},
			{"i2l_streamed", i2l, ml, wave, [][]complex128{wIn}, [][]complex128{mOut}, true},
			{"m2i_batch16", m2i, wave, ml, block16In, wave16Out, true},
			{"i2l_batch16", i2l, ml, wave, wave16In, block16Out, true},
		} {
			b.Run(fmt.Sprintf("%v/%s", l, c.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					tab := c.tabs[0]
					if c.stream {
						tab = c.tabs[i%streamed]
					}
					applyOn(l, tab, c.rows, c.cols, c.ins, c.outs)
				}
				perOp := float64(b.Elapsed().Nanoseconds()) / 1e3 / float64(b.N)
				b.ReportMetric(perOp, "µs/op")
				b.ReportMetric(perOp/float64(len(c.ins)), "µs/rhs")
			})
		}
		for _, c := range []struct {
			name       string
			rows, cols int
			p, s       []float64
		}{
			{"m2l_build", ml, ml, m2lP, m2lS},
			{"m2i_build", wave, ml, m2iP, m2iS},
		} {
			b.Run(fmt.Sprintf("%v/%s", l, c.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					denseTableOn(l, c.rows, c.cols, c.p, c.s)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e6/float64(b.N), "ms/op")
			})
		}
	}
}
