package kernel

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
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

// denseShapes are the row and column counts the oracles sweep: every tail
// length of both vector widths, a row pair and an odd row out, the packed
// M/L size at three digits and a plane-wave length.
var denseShapes = []int{1, 2, 3, 4, 5, 7, 8, 9, 55, 477}

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

// TestDenseApplyMatchesPortable holds every bound apply to the portable
// one on every shape and right-hand-side count: accumulated into outputs
// that start nonzero, entry by entry within the rounding of its terms, and
// reading and writing nothing outside the table, the inputs and the
// outputs.
func TestDenseApplyMatchesPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, l := range denseLoops() {
		for _, rows := range denseShapes {
			for _, cols := range denseShapes {
				tab, tabAll := fenced(rng, 2*rows*cols)
				for _, nrhs := range []int{1, 2, 3, 5} {
					ins, outs := make([][]complex128, nrhs), make([][]complex128, nrhs)
					inAll, outAll := make([][]complex128, nrhs), make([][]complex128, nrhs)
					start, want := make([][]complex128, nrhs), make([][]complex128, nrhs)
					for r := range ins {
						ins[r], inAll[r] = fenced(rng, cols)
						outs[r], outAll[r] = fenced(rng, rows)
						start[r] = append([]complex128(nil), outs[r]...)
						want[r] = append([]complex128(nil), outs[r]...)
					}
					applyGo(tab, ins, want)
					applyOn(l, tab, ins, outs)
					name := fmt.Sprintf("%v %dx%d, %d rhs", l, rows, cols, nrhs)
					for r := range outs {
						if !fenceIntact(inAll[r], cols) || !fenceIntact(outAll[r], rows) || !fenceIntact(tabAll, 2*rows*cols) {
							t.Fatalf("%s: wrote outside the slices", name)
						}
						for i, got := range outs[r] {
							magR, magI := math.Abs(real(start[r][i])), math.Abs(imag(start[r][i]))
							for j, x := range ins[r] {
								a, b := tab[2*i*cols+j], tab[(2*i+1)*cols+j]
								magR += math.Abs(real(a)*real(x)) + math.Abs(real(b)*imag(x))
								magI += math.Abs(imag(a)*real(x)) + math.Abs(imag(b)*imag(x))
							}
							w := want[r][i]
							if !closeTo(real(got), real(w), 2*cols, magR) || !closeTo(imag(got), imag(w), 2*cols, magI) {
								t.Fatalf("%s: out[%d][%d] = %v, portable %v (term magnitudes %.3g, %.3g)", name, r, i, got, w, magR, magI)
							}
						}
					}
				}
			}
		}
	}
}

// TestDenseDotMatchesPortable holds every bound dot to the portable one on
// every length, both sums, within the rounding of their terms and reading
// nothing outside the two streams.
func TestDenseDotMatchesPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, l := range denseLoops() {
		for _, n := range append([]int{0, 338}, denseShapes...) {
			p, _ := fenced(rng, n)
			s, _ := fenced(rng, n)
			a, b := dotOn(l, p, s)
			wa, wb := dotGo(p, s)
			var ar, ai, br, bi float64
			for q := range p {
				ar += math.Abs(real(p[q]) * real(s[q]))
				ai += math.Abs(imag(p[q]) * real(s[q]))
				br += math.Abs(real(p[q]) * imag(s[q]))
				bi += math.Abs(imag(p[q]) * imag(s[q]))
			}
			if !closeTo(real(a), real(wa), n, ar) || !closeTo(imag(a), imag(wa), n, ai) ||
				!closeTo(real(b), real(wb), n, br) || !closeTo(imag(b), imag(wb), n, bi) {
				t.Errorf("%v length %d: (%v, %v), portable (%v, %v)", l, n, a, b, wa, wb)
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
// at three digits, Laplace level 3: the M->L table (55x55) per right-hand
// side alone and in a block of 16, the M->I (ISize x 55: 268 x 55 at three
// digits) and I->L (55 x 268)
// tables in cache, streamed (cycling through 64 distinct tables) and
// streamed in blocks of 16 right-hand sides (the executor's plane-wave
// batches), and the dots of one M->I table build. It reports µs per
// operation and per right-hand side, and publishes nothing.
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
	m2l, m2i, i2l := tables(ml, ml), tables(wave, ml), tables(ml, wave)
	mIn, wIn := random(ml), random(wave)
	mOut, wOut := make([]complex128, ml), make([]complex128, wave)
	var block16In, block16Out, wave16In, wave16Out [][]complex128
	for range 16 {
		block16In, block16Out = append(block16In, random(ml)), append(block16Out, make([]complex128, ml))
		wave16In, wave16Out = append(wave16In, random(wave)), append(wave16Out, make([]complex128, wave))
	}
	proj, samp := random(wave*nq), random(ml*nq)
	for _, l := range denseLoops() {
		for _, c := range []struct {
			name      string
			tabs      [][]complex128
			ins, outs [][]complex128
			stream    bool
		}{
			{"m2l", m2l, [][]complex128{mIn}, [][]complex128{mOut}, false},
			{"m2l_batch16", m2l, block16In, block16Out, false},
			{"m2i", m2i, [][]complex128{mIn}, [][]complex128{wOut}, false},
			{"m2i_streamed", m2i, [][]complex128{mIn}, [][]complex128{wOut}, true},
			{"i2l", i2l, [][]complex128{wIn}, [][]complex128{mOut}, false},
			{"i2l_streamed", i2l, [][]complex128{wIn}, [][]complex128{mOut}, true},
			{"m2i_batch16", m2i, block16In, wave16Out, true},
			{"i2l_batch16", i2l, wave16In, block16Out, true},
		} {
			b.Run(fmt.Sprintf("%v/%s", l, c.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					tab := c.tabs[0]
					if c.stream {
						tab = c.tabs[i%streamed]
					}
					applyOn(l, tab, c.ins, c.outs)
				}
				perOp := float64(b.Elapsed().Nanoseconds()) / 1e3 / float64(b.N)
				b.ReportMetric(perOp, "µs/op")
				b.ReportMetric(perOp/float64(len(c.ins)), "µs/rhs")
			})
		}
		b.Run(fmt.Sprintf("%v/m2i_build_dots", l), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for r := 0; r < wave; r++ {
					for c := 0; c < ml; c++ {
						dotOn(l, proj[r*nq:(r+1)*nq], samp[c*nq:(c+1)*nq])
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e6/float64(b.N), "ms/op")
		})
	}
}
