package kernel

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/geom"
	"repro/internal/sphharm"
)

// The point block, held to the portable loops (project, evalAt) on every
// binding this CPU runs (denseLoops: the AVX2 form runs on an AVX-512 box
// too; under -tags purego or off amd64 only the portable one, compared with
// itself).

// ulpsYukawa bounds the block's Yukawa radial halves against the scalar
// ones, in units of 2^-52 of the terms' magnitudes: the Miller pass starts
// higher and e^{-x} is a polynomial, where Laplace's radial halves are the
// scalar loop's bits.
const ulpsYukawa = 16

// TestPointBlockLayout pins the offsets point_amd64.s addresses.
func TestPointBlockLayout(t *testing.T) {
	var pb pointBlock
	for _, f := range []struct {
		name      string
		got, want uintptr
	}{
		{"x", unsafe.Offsetof(pb.x), 0}, {"y", unsafe.Offsetof(pb.y), 64},
		{"z", unsafe.Offsetof(pb.z), 128}, {"q", unsafe.Offsetof(pb.q), 192},
		{"pot", unsafe.Offsetof(pb.pot), 256}, {"xl", unsafe.Offsetof(pb.xl), 320},
		{"inv", unsafe.Offsetof(pb.inv), 384}, {"i0", unsafe.Offsetof(pb.i0), 448},
		{"rad", unsafe.Offsetof(pb.rad), 512}, {"ylm", unsafe.Offsetof(pb.ylm), 536},
		{"acc", unsafe.Offsetof(pb.acc), 560},
	} {
		if f.got != f.want {
			t.Errorf("pointBlock.%s at offset %d, the assembly reads it at %d", f.name, f.got, f.want)
		}
	}
}

// pointCase is one kernel and one leaf of points about c.
type pointCase struct {
	name string
	b    *base
	c    geom.Point
	pts  []geom.Point
	q    []float64
}

// termErr is |got - want| in units of 2^-52 of mag, the sum of the
// magnitudes of the terms both add up. A NaN term (mag NaN) makes both sums
// NaN in any order, and equal Inf terms give the same Inf; where the
// magnitudes overflow, summation order decides between ±Inf, NaN and a
// finite sum, so nothing is asked (0).
func termErr(got, want, mag float64) float64 {
	switch {
	case got == want || math.IsNaN(got) && math.IsNaN(want):
		return 0
	case math.IsNaN(mag) || mag == 0:
		return math.Inf(1)
	case math.IsInf(mag, 0):
		return 0
	}
	return math.Abs(got-want) / (0x1p-52 * mag)
}

// checkPointBlock compares all four operators of binding l with the
// portable loop on one leaf and returns the worst error of S->M/S->L and of
// M->T/L->T in units of 2^-52 of the terms' magnitudes (termErr). S->M and
// S->L must be within the rounding of their sums plus, for Yukawa,
// ulpsYukawa; M->T and L->T the same per point, and Laplace's to the bit.
func checkPointBlock(t *testing.T, l denseLoop, pc pointCase) (worstProj, worstEval float64) {
	t.Helper()
	b := pc.b
	rng := rand.New(rand.NewSource(int64(len(pc.pts))))
	ml := b.MLSize()
	extra := 0.0
	if b.lambda != 0 {
		extra = ulpsYukawa
	}
	name := fmt.Sprintf("%s %v p=%d n=%d", pc.name, l, b.p, len(pc.pts))
	for _, f := range []family{regular, outer} {
		// S->M (regular) and S->L (outer) into a nonzero start.
		start := randPacked(rng, ml)
		got := append([]complex128(nil), start...)
		want := append([]complex128(nil), start...)
		b.pointProject(l, f, pc.c, pc.pts, pc.q, got)
		b.pointProject(denseGo, f, pc.c, pc.pts, pc.q, want)
		magR, magI := make([]float64, ml), make([]float64, ml)
		for i := range start {
			magR[i], magI[i] = math.Abs(real(start[i])), math.Abs(imag(start[i]))
		}
		term := make([]complex128, ml)
		for i := range pc.pts {
			clear(term)
			b.project(pc.c, pc.pts[i:i+1], pc.q[i:i+1], b.radial(f), term)
			for j, v := range term {
				magR[j] += math.Abs(real(v))
				magI[j] += math.Abs(imag(v))
			}
		}
		n := float64(len(pc.pts) + 2)
		for j := range got {
			for _, part := range []struct{ g, w, mag float64 }{
				{real(got[j]), real(want[j]), magR[j]}, {imag(got[j]), imag(want[j]), magI[j]},
			} {
				if e := termErr(part.g, part.w, part.mag); !(e <= 2*n+extra) {
					t.Fatalf("%s project %d slot %d: %v, portable %v (term magnitudes %.3g, %.1f ulp)", name, f, j, part.g, part.w, part.mag, e)
				} else {
					worstProj = max(worstProj, e)
				}
			}
		}

		// M->T (outer) and L->T (regular).
		coeff := randPacked(rng, ml)
		gotP, wantP := make([]float64, len(pc.pts)), make([]float64, len(pc.pts))
		for i := range gotP {
			gotP[i] = rng.NormFloat64()
			wantP[i] = gotP[i]
		}
		b.pointEval(l, f, pc.c, coeff, pc.pts, gotP)
		b.pointEval(denseGo, f, pc.c, coeff, pc.pts, wantP)
		for i, g := range gotP {
			w, s := wantP[i], pc.pts[i]
			if b.lambda == 0 {
				if g != w && !(math.IsNaN(g) && math.IsNaN(w)) {
					t.Fatalf("%s eval %d point %d: %v, portable %v: not its bits", name, f, i, g, w)
				}
				continue
			}
			mag := math.Abs(w-evalAtOne(b, f, pc.c, coeff, s)) + evalMag(b, f, pc.c, coeff, s)
			e := termErr(g, w, mag)
			if !(e <= float64(2*(b.p+2)*(b.p+2))+extra) {
				t.Fatalf("%s eval %d point %d: %v, portable %v (term magnitudes %.3g, %.1f ulp)", name, f, i, g, w, mag, e)
			}
			worstEval = max(worstEval, e)
		}
	}
	return worstProj, worstEval
}

// evalAtOne is the portable field of coeff at t alone.
func evalAtOne(b *base, f family, c geom.Point, coeff []complex128, t geom.Point) float64 {
	var pot [1]float64
	b.evalAt(c, coeff, b.radial(f), []geom.Point{t}, pot[:])
	return pot[0]
}

// evalMag is Σ 2·|rad_n|·Σ_m |c_n^m|·|Y_n^m| at t: a bound on the magnitude
// of every term of the field there.
func evalMag(b *base, f family, c geom.Point, coeff []complex128, t geom.Point) float64 {
	x, y, z, r := sphharm.Direction(t.X-c.X, t.Y-c.Y, t.Z-c.Z)
	rad := make([]float64, b.p+1)
	ylm := make([]complex128, b.MLSize())
	b.radial(f)(r, rad)
	b.coef.YnmPackedXYZ(x, y, z, ylm)
	var mag float64
	for n := 0; n <= b.p; n++ {
		var s float64
		for m := 0; m <= n; m++ {
			i := sphharm.TriIndex(n, m)
			s += math.Abs(real(coeff[i])*real(ylm[i])) + math.Abs(imag(coeff[i])*imag(ylm[i]))
		}
		mag += 2 * math.Abs(rad[n]) * s
	}
	return mag
}

// pointKernels are the kernels the block is checked on: both families at
// the benchmark's order and around it, p = 0, 1 and 2 being the assembly's
// short paths.
func pointKernels() []*base {
	var ks []*base
	for _, p := range []int{0, 1, 2, 9, 17} {
		ks = append(ks, NewLaplace(p).(*base), NewYukawa(p, 4).(*base))
	}
	return ks
}

// TestPointBlockMatchesPortable holds every vector binding's four point
// operators to the portable loops on leaves of every tail length of both
// lane counts, and on the points the scalar radial functions serve: the
// centre, on-axis points, x = λr below 1e-8 and above 300, and a lane whose
// Miller pass passes 1e250 when a far lane sets the start.
func TestPointBlockMatchesPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	c := geom.Point{X: 0.5, Y: -0.25, Z: 0.125}
	var worstP, worstE float64
	for _, b := range pointKernels() {
		var cases []pointCase
		for _, n := range []int{1, 3, 4, 5, 7, 8, 9, 17, 90} {
			cases = append(cases, pointCase{"random", b, c, randBox(rng, c, 0.25, n), randCharges(rng, n)})
		}
		edge := []geom.Point{c, c.Add(geom.Point{Z: 0.1}), c.Add(geom.Point{Z: -0.07})}
		for _, x := range []float64{1e-9, 5e-9, 1e-8, 300, 300.5, 400} {
			edge = append(edge, c.Add(geom.Point{X: x / 4 / math.Sqrt(3), Y: x / 4 / math.Sqrt(3), Z: -x / 4 / math.Sqrt(3)}))
		}
		// x = 290 sets the Miller start near 315: x = 1e-6 in the same pass
		// grows past 1e250 long before row p.
		edge = append(edge, c.Add(geom.Point{X: 72.5}), c.Add(geom.Point{Y: 2.5e-7}))
		cases = append(cases, pointCase{"edges", b, c, edge, randCharges(rng, len(edge))})
		for _, l := range denseLoops() {
			for _, pc := range cases {
				wp, we := checkPointBlock(t, l, pc)
				worstP, worstE = max(worstP, wp), max(worstE, we)
			}
		}
	}
	t.Logf("worst: project %.1f, eval %.1f ulp of the terms' magnitudes", worstP, worstE)
}

// FuzzPointBlock holds every vector binding to the portable loops on
// arbitrary float64 coordinates, centre and charges, for both kernels at
// p = 9: the data is a centre and then up to 17 points of (x, y, z, q).
// Yukawa skips an input with a finite x = λr past 1e4 (slowBessel).
func FuzzPointBlock(f *testing.F) {
	enc := func(vs ...float64) []byte {
		var out []byte
		for _, v := range vs {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
		}
		return out
	}
	leaf := func(n int) []byte {
		vs := []float64{0.5, 0.5, 0.5}
		for i := range n {
			u := float64(i) / 9
			vs = append(vs, 0.4+0.2*u, 0.6-0.15*u, 0.45+0.1*u*u, 1-2*u)
		}
		return enc(vs...)
	}
	f.Add(enc(0, 0, 0, 0, 0, 0, 1))                     // r = 0
	f.Add(enc(1, 2, 3, 1, 2, 3.5, 1, 1, 2, 2.5, -1))    // on the axis, both sides
	f.Add(enc(0, 0, 0, 1e-9/4, 0, 0, 1))                // x = λr = 1e-9
	f.Add(enc(0, 0, 0, 100, 0, 0, 1, 0.1, 0, 0, 1))     // x = 400 beside x = 0.4
	f.Add(enc(0, 0, 0, 72.5, 0, 0, 1, 0, 2.5e-7, 0, 1)) // a Miller overflow lane
	f.Add(enc(0, 0, 0, math.NaN(), 0, 0, 1, 0.1, 0.2, 0.3, 1))
	for _, n := range []int{1, 7, 8, 9} {
		f.Add(leaf(n))
	}
	ks := []*base{NewLaplace(9).(*base), NewYukawa(9, 4).(*base)}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 24+32 {
			return
		}
		fl := func(i int) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:])) }
		c := geom.Point{X: fl(0), Y: fl(1), Z: fl(2)}
		n := min((len(data)-24)/32, 17)
		pts, q := make([]geom.Point, n), make([]float64, n)
		for i := range pts {
			pts[i] = geom.Point{X: fl(3 + 4*i), Y: fl(4 + 4*i), Z: fl(5 + 4*i)}
			q[i] = fl(6 + 4*i)
		}
		for _, b := range ks {
			if b.lambda != 0 && slowBessel(b.lambda, c, pts) {
				continue
			}
			for _, l := range denseLoops() {
				checkPointBlock(t, l, pointCase{"fuzz", b, c, pts, q})
			}
		}
	})
}

// slowBessel reports whether a point puts x = λr past 1e4, where the
// scalar i_n, the oracle, runs a Miller pass of x steps.
func slowBessel(lambda float64, c geom.Point, pts []geom.Point) bool {
	for _, s := range pts {
		_, _, _, r := sphharm.Direction(s.X-c.X, s.Y-c.Y, s.Z-c.Z)
		if x := lambda * r; x > 1e4 && !math.IsInf(x, 1) {
			return true
		}
	}
	return false
}

// BenchmarkPointBlock times the four point operators of both kernels at
// p = 9 on a 90-point leaf, every binding this CPU runs, in ns per point.
func BenchmarkPointBlock(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	c := geom.Point{X: 0.5, Y: 0.5, Z: 0.5}
	pts, q := randBox(rng, c, 0.125, 90), randCharges(rng, 90)
	far := c.Add(geom.Point{X: 0.25})
	for _, k := range []*base{NewLaplace(9).(*base), NewYukawa(9, 4).(*base)} {
		out := make([]complex128, k.MLSize())
		coeff := randPacked(rng, k.MLSize())
		pot := make([]float64, len(pts))
		for _, l := range denseLoops() {
			for _, op := range []struct {
				name string
				run  func()
			}{
				{"s2m", func() { k.pointProject(l, regular, c, pts, q, out) }},
				{"s2l", func() { k.pointProject(l, outer, far, pts, q, out) }},
				{"m2t", func() { k.pointEval(l, outer, far, coeff, pts, pot) }},
				{"l2t", func() { k.pointEval(l, regular, c, coeff, pts, pot) }},
			} {
				b.Run(fmt.Sprintf("%s/%s/%v", k.name, op.name, l), func(b *testing.B) {
					for range b.N {
						op.run()
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(pts)), "ns/pt")
				})
			}
		}
	}
}
