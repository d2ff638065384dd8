package kernel

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/geom"
)

// The pair loops, each held to the portable one. A loop this CPU lacks is
// not run (under -tags purego or off amd64 only the portable loop is).

// laplaceLoops lists the Laplace pair loops this process can run, the
// float64 ones first.
func laplaceLoops() []pairLoop { return loopsRun(laplaceGo, laplaceF32AVX512) }

// yukawaLoops lists the Yukawa pair loops this process can run.
func yukawaLoops() []pairLoop { return loopsRun(yukawaGo, yukawaF32AVX512) }

func loopsRun(first, last pairLoop) []pairLoop {
	var ls []pairLoop
	for l := first; l <= last; l++ {
		if l.runs() {
			ls = append(ls, l)
		}
	}
	return ls
}

// laplaceOn returns a Laplace kernel bound to the given pair loop.
func laplaceOn(l pairLoop) *base {
	b := NewLaplace(2).(*base)
	b.pair = l
	return b
}

// yukawaOn returns a Yukawa kernel bound to the given pair loop.
func yukawaOn(l pairLoop, lambda float64) *base {
	b := NewYukawa(2, lambda).(*base)
	b.pair = l
	return b
}

// loopOn returns a kernel bound to the given pair loop: Yukawa at lambda
// for a Yukawa loop, else Laplace.
func loopOn(l pairLoop, lambda float64) *base {
	if l >= yukawaGo {
		return yukawaOn(l, lambda)
	}
	return laplaceOn(l)
}

// portable is the portable loop of l's kernel.
func (l pairLoop) portable() pairLoop {
	if l >= yukawaGo {
		return yukawaGo
	}
	return laplaceGo
}

// everyLoop returns a kernel bound to each pair loop this process can run —
// Laplace's, then Yukawa's at lambda — and beside each the same kernel bound
// to its portable loop.
func everyLoop(lambda float64) (ks, portable []*base) {
	for _, l := range laplaceLoops() {
		ks, portable = append(ks, laplaceOn(l)), append(portable, laplaceOn(laplaceGo))
	}
	for _, l := range yukawaLoops() {
		ks, portable = append(ks, yukawaOn(l, lambda)), append(portable, yukawaOn(yukawaGo, lambda))
	}
	return ks, portable
}

// bitExact reports whether a loop computes its portable loop's bits: the
// portable loops themselves and Laplace's AVX2 loop, which repeats the
// portable operations in their order.
func bitExact(l pairLoop) bool { return l == laplaceGo || l == laplaceAVX2 || l == yukawaGo }

// pairFixture is one near-field apply: source chunks (an empty and a
// one-point chunk among them, all sub-slices at odd element offsets) and nt
// targets, a quarter of them coincident with sources, in a box scaled by
// scale. sign picks the charges: +1 same sign, 0 all zero, -1 both signs.
func pairFixture(rng *rand.Rand, nt int, scale float64, sign int) ([]P2PChunk, []geom.Point) {
	c := geom.Point{X: 0.5, Y: 0.5, Z: 0.5}
	tpts := randBox(rng, c, 0.25, nt+1)[1:]
	var chunks []P2PChunk
	for ci, ns := range []int{37, 0, 1, 64, 23} {
		spts := randBox(rng, c.Add(geom.Point{X: 0.25 * float64(ci%3-1)}), 0.25, ns+1)[1:]
		q := randCharges(rng, ns+3)[3:]
		for i := range spts {
			if ti := 4*i + ci; ci != 1 && ti < nt {
				spts[i] = tpts[ti]
			}
			switch sign {
			case 1:
				q[i] = math.Abs(q[i])
			case 0:
				q[i] = 0
			}
		}
		chunks = append(chunks, P2PChunk{Pts: spts, Q: q})
	}
	scaleAll := func(pts []geom.Point) {
		for i := range pts {
			pts[i] = pts[i].Scale(scale)
		}
	}
	scaleAll(tpts)
	for _, ch := range chunks {
		scaleAll(ch.Pts)
	}
	return chunks, tpts
}

var pairTargetCounts = []int{0, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 250, 257, 300}

func TestPairLoopsMatchPortable(t *testing.T) {
	for _, lambda := range []float64{0.5, 4, 40} {
		ks, portables := everyLoop(lambda)
		for ki, k := range ks {
			if lambda != 4 && k.name != "yukawa" {
				continue // one pass over the Laplace loops
			}
			portable := portables[ki]
			for _, scale := range []float64{1e-12, 1, 1e12} {
				for _, sign := range []int{1, 0, -1} {
					for _, nt := range pairTargetCounts {
						rng := rand.New(rand.NewSource(int64(nt) + 7))
						chunks, tpts := pairFixture(rng, nt, scale, sign)
						want, got := make([]float64, nt+3)[3:], make([]float64, nt+3)[3:]
						portable.P2P(chunks, tpts, want)
						k.P2P(chunks, tpts, got)
						name := fmt.Sprintf("%s/%v λ %g scale %g sign %d targets %d", k.name, k.pair, lambda, scale, sign, nt)
						// The driver adds to what pot holds: x + x is exact.
						twice := append([]float64(nil), got...)
						k.P2P(chunks, tpts, twice)
						for i := range twice {
							if twice[i] != 2*got[i] {
								t.Fatalf("%s: a second apply made potential %d %v from %v", name, i, twice[i], got[i])
							}
						}
						if k.pair.narrowed() {
							within32(t, name, got, want, allow32(k, chunks, tpts))
							continue
						}
						if bitExact(k.pair) {
							for i := range want {
								if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
									t.Fatalf("%s: potential %d is %x, the portable loop's %x", name, i,
										math.Float64bits(got[i]), math.Float64bits(want[i]))
								}
							}
							continue
						}
						var maxAbs float64
						for _, v := range want {
							maxAbs = math.Max(maxAbs, math.Abs(v))
						}
						// Both loops are within a few ulp of each other per
						// pair and round some 125 partial sums each their own
						// way: same-sign potentials agree to a few ulp (worst
						// over 200 seeds of this fixture 6.3e-16 for Laplace,
						// 6.6e-16 for Yukawa), the others to that much of the
						// largest.
						for i := range want {
							d := math.Abs(got[i] - want[i])
							if sign >= 0 && d > 1e-15*math.Abs(want[i]) {
								t.Fatalf("%s: potential %d off by %.2e relative", name, i, d/math.Abs(want[i]))
							}
							if d > 1e-13*maxAbs {
								t.Fatalf("%s: potential %d off by %.2e of max |phi|", name, i, d/maxAbs)
							}
						}
					}
				}
			}
		}
	}
}

// One source at the origin and targets on an axis make r² a single rounded
// square with or without fused multiply-add, so every loop can be held to
// 1/math.Sqrt of the same number: the exact loops to its bits, the Newton
// loop to 2 ulp (it is at worst 1.1 ulp from the true value, where
// 1/math.Sqrt is 0.97), over sixty decades of r².
func TestPairLoopsPerPairAccuracy(t *testing.T) {
	n := 1000000
	if testing.Short() {
		n = 50000
	}
	src, q := []geom.Point{{}}, []float64{1}
	for _, l := range laplaceLoops() {
		if l.narrowed() {
			continue // TestFloat32LoopsPerPair
		}
		rng := rand.New(rand.NewSource(5))
		var worst float64
		var tpts [blockTargets]geom.Point
		var blk pairBlock
		for done := 0; done < n; done += blockTargets {
			for i := range tpts {
				tpts[i] = geom.Point{X: math.Pow(10, 30*rng.Float64()-15)} // r² in 1e-30…1e30
				if rng.Intn(2) == 0 {
					tpts[i].X = -tpts[i].X
				}
			}
			blk.load(tpts[:])
			pairsOn(l, 0, src, q, &blk)
			for i, tp := range tpts {
				want := 1 / math.Sqrt(tp.X*tp.X)
				ulps := math.Abs(float64(int64(math.Float64bits(blk.acc[i])) - int64(math.Float64bits(want))))
				if worst = math.Max(worst, ulps); l != laplaceAVX512 && ulps != 0 || ulps > 2 {
					t.Fatalf("%v: 1/r at r=%g is %v, %v ulp from %v", l, tp.X, blk.acc[i], ulps, want)
				}
			}
		}
		t.Logf("%v: worst %v ulp over %d pairs", l, worst, n)
	}
}

// The edges of the domain: an overflowed r² contributes q/√∞ = 0 — never a
// NaN — beside pairs that do contribute, r at the ends of the stated range
// still gives 1/r, and a coincident pair gives exactly nothing.
func TestPairLoopsDomainEdges(t *testing.T) {
	src := []geom.Point{{}, {X: 1}, {X: 3e153}}
	q := []float64{2, -3, 0} // the third only places a far source
	tpts := make([]geom.Point, 21)
	for i := range tpts {
		tpts[i] = geom.Point{X: 1e200, Y: -1e200} // r² = +Inf to every source
	}
	tpts[3] = geom.Point{X: 1e-153}       // coincident with nothing, r² barely normal
	tpts[4] = geom.Point{X: 1, Y: 1e-170} // dy² underflows to zero: coincident with source 1 in effect
	tpts[17] = geom.Point{X: -1e153}
	tpts[20] = geom.Point{} // coincident with source 0
	for _, l := range laplaceLoops() {
		pot := make([]float64, len(tpts))
		laplaceOn(l).S2T(src, q, tpts, pot)
		for i, v := range pot {
			var want float64
			switch i {
			case 3:
				want = 2/1e-153 - 3
			case 4:
				want = 2
			case 17:
				want = 2/1e153 - 3/1e153
			case 20:
				want = -3
			}
			if math.IsNaN(v) || math.Abs(v-want) > 1e-15*math.Abs(want) {
				t.Errorf("%v: target %d (%v): potential %v, want %v", l, i, tpts[i], v, want)
			}
		}
	}
}

// yukawaAgrees reports whether a vector Yukawa loop's got is close enough to
// the portable loop's want: within 4 ulp where want is normal, within 2^-1022
// below that, NaN where want is.
func yukawaAgrees(got, want float64) (ulps float64, ok bool) {
	switch {
	case math.IsNaN(want):
		return 0, math.IsNaN(got)
	case math.Abs(want) < 0x1p-1022:
		return 0, math.Abs(got-want) <= 0x1p-1022
	}
	ulps = math.Abs(float64(int64(math.Float64bits(got)) - int64(math.Float64bits(want))))
	return ulps, ulps <= 4 && math.Signbit(got) == math.Signbit(want)
}

// Per pair, every Yukawa loop against the portable one: one source at the
// origin and targets on an axis, log-uniform r in 1e-4…1e2, over five decades
// of λ — λr from 1e-7 to 4e4, through the subnormal results past λr ≈ 708
// into 0.
func TestYukawaLoopsPerPairAccuracy(t *testing.T) {
	n := 200000
	if testing.Short() {
		n = 20000
	}
	src, q := []geom.Point{{}}, []float64{1}
	for _, l := range yukawaLoops()[1:] {
		if l.narrowed() {
			continue // TestFloat32LoopsPerPair
		}
		for _, lambda := range []float64{1e-3, 0.5, 4, 40, 400} {
			rng := rand.New(rand.NewSource(5))
			var worst, sum float64
			var tpts [blockTargets]geom.Point
			var blk, ref pairBlock
			for done := 0; done < n; done += blockTargets {
				for i := range tpts {
					tpts[i] = geom.Point{X: math.Pow(10, 6*rng.Float64()-4)}
					if rng.Intn(2) == 0 {
						tpts[i].X = -tpts[i].X
					}
				}
				blk.load(tpts[:])
				ref.load(tpts[:])
				pairsOn(l, lambda, src, q, &blk)
				pairsOn(yukawaGo, lambda, src, q, &ref)
				for i, tp := range tpts {
					ulps, ok := yukawaAgrees(blk.acc[i], ref.acc[i])
					if !ok {
						t.Fatalf("%v: λ %g r %g: %v, the portable loop's %v (%v ulp)", l, lambda, tp.X, blk.acc[i], ref.acc[i], ulps)
					}
					worst, sum = math.Max(worst, ulps), sum+ulps
				}
			}
			t.Logf("%v λ %g: worst %v ulp, mean %.2f over %d pairs", l, lambda, worst, sum/float64(n), n)
		}
	}
}

// The edges of the Yukawa domain, each against the portable loop's value: λr
// across 700–760, where e^{-λr}/r goes subnormal and then 0; λ = 1e300, an
// overflowed λr, gives 0 (and not the +Inf of an unclamped exponent); an
// overflowed r² gives 0; a coincident pair gives nothing; a NaN coordinate
// gives NaN.
func TestYukawaLoopsDomainEdges(t *testing.T) {
	src := []geom.Point{{}, {Y: 1}}
	q := []float64{1.5, 0} // the second only places a source off the axis
	var tpts []geom.Point
	for r := 700.0; r <= 760; r += 0.25 {
		tpts = append(tpts, geom.Point{X: r})
	}
	edges := []geom.Point{
		{X: 1e200, Y: -1e200}, // r² = +Inf to both sources
		{},                    // coincident with source 0
		{X: math.NaN()},
		{X: 3, Z: math.NaN()},
	}
	tpts = append(tpts, edges...)
	check := func(l pairLoop, lambda float64, tpts []geom.Point) {
		t.Helper()
		want, got := make([]float64, len(tpts)), make([]float64, len(tpts))
		yukawaOn(yukawaGo, lambda).S2T(src, q, tpts, want)
		yukawaOn(l, lambda).S2T(src, q, tpts, got)
		for i := range tpts {
			if ulps, ok := yukawaAgrees(got[i], want[i]); !ok {
				t.Errorf("%v: λ %g, target %v: %v, the portable loop's %v (%v ulp)", l, lambda, tpts[i], got[i], want[i], ulps)
			}
		}
	}
	for _, l := range yukawaLoops()[1:] {
		if l.narrowed() {
			continue // below
		}
		check(l, 1, tpts)
		check(l, 1e300, tpts)
		check(l, 1e300, []geom.Point{{X: 1e-3}, {X: 2e-3}, {X: 1}, {X: 3}})
	}
	// The float32 loops through the driver, against their float64 twins:
	// λ = 1e300 (λ′ beyond lambda32Max), an overflowed r² (a block that does
	// not narrow) and a NaN charge (a sub-chunk that does not) run the twin
	// and give its bits; sources 40–55 from a unit block at λ = 2 (λ′ = 1)
	// put t across float32's underflow edge, −87…−104, where each float32
	// loop stays within allow32 of its twin.
	rng := rand.New(rand.NewSource(29))
	block := randBox(rng, geom.Point{}, 1, 40)
	var edge []geom.Point
	for x := 40.0; x <= 55; x += 0.25 {
		edge = append(edge, geom.Point{X: x, Y: 0.3})
	}
	for _, l := range yukawaLoops() {
		if !l.narrowed() {
			continue
		}
		for _, c := range []struct {
			name   string
			lambda float64
			src    []geom.Point
			q      []float64
			tpts   []geom.Point
			exact  bool
		}{
			{"λ = 1e300", 1e300, src, q, []geom.Point{{X: 1e-3}, {X: 2e-3}, {X: 1}, {X: 3}}, true},
			{"r² = +Inf", 1, src, q, []geom.Point{{X: 1e200, Y: -1e200}, {X: 1}}, true},
			{"a NaN charge", 1, src, []float64{1.5, math.NaN()}, []geom.Point{{X: 1}, {X: 2}}, true},
			{"t across −87…−104", 2, edge, randCharges(rng, len(edge)), block, false},
		} {
			k, twin := yukawaOn(l, c.lambda), yukawaOn(l.wide(), c.lambda)
			got, want := make([]float64, len(c.tpts)), make([]float64, len(c.tpts))
			k.S2T(c.src, c.q, c.tpts, got)
			twin.S2T(c.src, c.q, c.tpts, want)
			if !c.exact {
				within32(t, l.String()+", "+c.name, got, want, allow32(k, []P2PChunk{{Pts: c.src, Q: c.q}}, c.tpts))
				continue
			}
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Errorf("%v, %s: target %v: %v, the float64 loop's %v", l, c.name, c.tpts[i], got[i], want[i])
				}
			}
		}
	}
	// The portable loop's own values there, which the check above holds the
	// others to.
	pot := make([]float64, len(edges))
	yukawaOn(yukawaGo, 1).S2T(src, q, edges, pot)
	if pot[0] != 0 || pot[1] != 0 || !math.IsNaN(pot[2]) || !math.IsNaN(pot[3]) {
		t.Errorf("portable loop at the edges: %v, want [0 0 NaN NaN]", pot)
	}
	far := make([]float64, 2)
	yukawaOn(yukawaGo, 1e300).S2T(src, q, []geom.Point{{X: 1e-3}, {X: 3}}, far)
	if far[0] != 0 || far[1] != 0 {
		t.Errorf("portable loop at λ = 1e300: %v, want [0 0]", far)
	}
}

// TestP2PTiledMatchesDirect checks the blocked multi-chunk P2P of both
// kernels against a scalar loop over Kernel.Direct, which shares no code
// with the pair loops, with more targets than two blocks to cover the
// remainder handling: the float64 loops to 1e-13, and where the CPU binds a
// float32 loop at this order, that loop to pairBound32 (allow32).
func TestP2PTiledMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	lap, yuk := NewLaplace(2).(*base), NewYukawa(2, 4.0).(*base)
	ks := []*base{laplaceOn(lap.pair.wide()), yukawaOn(yuk.pair.wide(), 4.0)}
	for _, k := range []*base{lap, yuk} {
		if k.pair.narrowed() {
			ks = append(ks, k)
		}
	}
	for _, k := range ks {
		center := geom.Point{X: 0.5, Y: 0.5, Z: 0.5}
		tpts := randBox(rng, center, 0.125, 600)
		var chunks []P2PChunk
		want := make([]float64, len(tpts))
		for c := 0; c < 3; c++ {
			sc := center.Add(geom.Point{X: float64(c+1) * 0.125})
			spts := randBox(rng, sc, 0.125, 37)
			q := randCharges(rng, 37)
			chunks = append(chunks, P2PChunk{Pts: spts, Q: q})
			for ti, tp := range tpts {
				for si, sp := range spts {
					want[ti] += q[si] * k.Direct(tp, sp)
				}
			}
		}
		got := make([]float64, len(tpts))
		k.P2P(chunks, tpts, got)
		if k.pair.narrowed() {
			within32(t, k.name+"/"+k.pair.String(), got, want, allow32(k, chunks, tpts))
			continue
		}
		if e := relErr(got, want); e > 1e-13 {
			t.Errorf("%s/%v: blocked P2P vs the scalar Direct loop rel err %.2e", k.Name(), k.pair, e)
		}
	}
}

// One driver: S2T is P2P with one chunk, on every loop and both kernels.
func TestS2TIsP2PWithOneChunk(t *testing.T) {
	ks, _ := everyLoop(4)
	rng := rand.New(rand.NewSource(3))
	for _, k := range ks {
		for _, nt := range pairTargetCounts {
			chunks, tpts := pairFixture(rng, nt, 1, -1)
			ch := chunks[3]
			a, b := make([]float64, nt), make([]float64, nt)
			k.S2T(ch.Pts, ch.Q, tpts, a)
			k.P2P([]P2PChunk{ch}, tpts, b)
			for i := range a {
				if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
					t.Fatalf("%s/%v, %d targets: S2T gives %v at %d, P2P %v", k.name, k.pair, nt, a[i], i, b[i])
				}
			}
		}
	}
}

func TestPairDriverNoAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	chunks, tpts := pairFixture(rng, 150, 1, -1)
	pot := make([]float64, len(tpts))
	ks, _ := everyLoop(4)
	for _, k := range ks {
		if a := testing.AllocsPerRun(20, func() { k.P2P(chunks, tpts, pot) }); a != 0 {
			t.Errorf("%s/%v: P2P allocates %.0f times per call", k.name, k.pair, a)
		}
		if a := testing.AllocsPerRun(20, func() { k.S2T(chunks[0].Pts, chunks[0].Q, tpts, pot) }); a != 0 {
			t.Errorf("%s/%v: S2T allocates %.0f times per call", k.name, k.pair, a)
		}
	}
}

// The portable Yukawa pair loop computes what it computed before it moved
// onto the block layout — the same operations in the same order — so the
// potentials of a fixed fixture through P2P, recorded at the commit before,
// compare equal. (Recorded on amd64; elsewhere math.Exp and fused
// multiply-adds round differently.) The vector loops are held to it by
// the tests above, not to these bits.
func TestYukawaP2PGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden recorded on amd64")
	}
	rng := rand.New(rand.NewSource(97))
	center := geom.Point{X: 0.5, Y: 0.5, Z: 0.5}
	tpts := randBox(rng, center, 0.125, 70)
	var chunks []P2PChunk
	for c, n := range []int{37, 1, 25} {
		spts := randBox(rng, center.Add(geom.Point{X: float64(c) * 0.125}), 0.125, n)
		if c == 0 {
			copy(spts, tpts[:5]) // coincident pairs are skipped
		}
		chunks = append(chunks, P2PChunk{Pts: spts, Q: randCharges(rng, n)})
	}
	pot := make([]float64, len(tpts))
	k := NewYukawa(OrderForDigits(3), 4.0).(*base)
	k.pair = yukawaGo
	k.P2P(chunks, tpts, pot)
	for i, v := range pot {
		if math.Float64bits(v) != yukawaP2PGolden[i] {
			t.Errorf("potential %d is %x, recorded %x", i, math.Float64bits(v), yukawaP2PGolden[i])
		}
	}
}

var yukawaP2PGolden = [70]uint64{
	0xc043b7a828c4c527, 0xc038a49ec5886c58, 0xc04a0ea9da7f4e44, 0xc02fb8ab43c1ce36,
	0xc0474f1f17ee6c04, 0xc06378a518cf04a3, 0xc034b864685aaaff, 0xc040e79de0b439f0,
	0xc0417c67d548f4dd, 0xc05b346f05ac620b, 0xc04a9efcc83f6696, 0xc043d861fc6ccdb4,
	0xc04e98285194d9d1, 0xc02f0d95d36e5616, 0xc0529d7f5991db73, 0xc0500c384df698ee,
	0xc06da9adf76f00d6, 0xc04b42272433ad6e, 0xc04942b0f94ef26f, 0xc02fa6eaba6ee99c,
	0xc050bf7828c680da, 0xc02f924ec5563daf, 0x4041cc25eef76d22, 0xc04959233509b068,
	0xc04d1910e4e9e1e4, 0xc036648895b75f61, 0xc041d95fe4c8e223, 0xc050f55086f7f22d,
	0xc0419bb7d293f464, 0xc0425d8118ba2234, 0xc061605c8872e74a, 0xc051b92c928bbba0,
	0xc0583f0bd144183a, 0xc04baae2a2657387, 0xc075b30e63e660b6, 0xc05e30084308ec9c,
	0xc049ffd9eba54abc, 0xc054b74630790592, 0xc02146b292630033, 0xc05292c143055c82,
	0xc053a217546b857c, 0xc05315a2609ec38d, 0xc04f9b8a1884a90e, 0xc04a2a8a9ab4cf5b,
	0xc0313eb113d734a6, 0x3fdc2ecc932a2f8a, 0xc05b428a5e0edf87, 0xc06079151bfc3dea,
	0xc0453a614e0e6973, 0xc031b2d64adae6d7, 0xc03e70c8bc39c556, 0xc031bb0865a8f1bb,
	0xc0437361515c3ec6, 0xc0605b8f33517a34, 0xc049001be9d32cf6, 0xc04f43c2e2b7c517,
	0xc04b9a8297dc4baa, 0xc03b54c48c1e2882, 0xc0537cdcfd6c59a0, 0xc04d11a8d2c259e2,
	0xc048c43f3d157901, 0xc04bd5979c8fa473, 0xc034ed3382a08b75, 0xc03131701177d281,
	0xc034d6409b3bab83, 0xc04a120470dbd4a6, 0xc04cb2fca1f15dca, 0xc01cab0e019046e9,
	0xc0680ee7360f46b6, 0xc04c690e87999550,
}

// BenchmarkPairs times every pair loop of both kernels on two near-field
// shapes: the level-2 leaf of the N=16k cube (27 chunks of 250 sources
// against 250 targets) and the leaf of sphere100k_yukawa_basic at threshold
// 240 (27 chunks of about 90). Yukawa runs at λ = 0.5 on these unit-side
// leaves, the workload's λ times its leaf side (λ = 4, side 1/8: its target
// blocks run at λ′ = 1/8…1/4, all below lambda32Max). It reports ns per
// pair and publishes nothing.
func BenchmarkPairs(b *testing.B) {
	ks, _ := everyLoop(0.5)
	for _, leaf := range []int{250, 90} {
		rng := rand.New(rand.NewSource(1))
		tpts := randBox(rng, geom.Point{}, 1, leaf)
		var chunks []P2PChunk
		for c := 0; c < 27; c++ {
			chunks = append(chunks, P2PChunk{Pts: randBox(rng, geom.Point{}, 3, leaf), Q: randCharges(rng, leaf)})
		}
		pot := make([]float64, len(tpts))
		for _, k := range ks {
			b.Run(fmt.Sprintf("%s/%v/27x%d", k.name, k.pair, leaf), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					k.P2P(chunks, tpts, pot)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(27*leaf*leaf), "ns/pair")
			})
		}
	}
}
