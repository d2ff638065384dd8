package kernel

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/geom"
	"repro/internal/points"
)

// The float32 pair loops of both kernels (p2p.go, pairLoop): their block
// layout, their accuracy per pair, the hazards that send a block and
// sub-chunk back to float64, the bound that holds them to their float64
// twins, and the order and λ′ up to which NewLaplace and NewYukawa bind
// them.

// pairBound32 is the documented bound of a float32 Laplace loop against its
// float64 twin: per target, |φ32 − φ64| ≤ pairBound32·Σ|q|/r over the
// target's pairs. It covers the narrowing (≤ 5.3e-5 of r at the least r
// summed), the loop's 1/r (≤ 6·2⁻²⁴, loopBound32), the charge and the
// float32 sum of up to subChunk terms (≤ 255·2⁻²⁴ of Σ|q|/r): 6.9e-5 in
// all.
//
// A float32 Yukawa loop is held to pairBound32Yukawa·Σ|q|·e^{−λr}/r +
// underflow32·Σ|q|/r (allow32). A pair's term carries Laplace's errors and
// those of e^t, t = −λ′r: t to (loopBound32 + 2)·2⁻²⁴ of itself, and the
// narrowed r moved by up to √3·2⁻²⁴·(2 + r), which is λ′ times that in t —
// at most (8·|t| + 1.7·(2Λ + |t|))·2⁻²⁴ ≤ 6.0e-5 over the |t| ≤ 104 where
// e^t is a float32 — plus the polynomial's 2·2⁻²⁴: 1.3e-4 in all. Where
// e^t is not a normal float32 (|t| above ≈ 87) a term may be lost, at most
// 2⁻¹²⁵ of |q|/r, or gain a subnormal product's rounding, 2⁻¹⁵¹ of |q| in
// the image, where r is below 2³³: under 2⁻¹¹⁸ of |q|/r either way. A
// subnormal sum rounds by 2⁻¹⁵⁰ of the image per term besides.
const (
	pairBound32       = 0x1p-13
	pairBound32Yukawa = 0x1p-12
	underflow32       = 0x1p-118
)

// loops32 lists the float32 loops this CPU runs, Laplace's first.
func loops32() []pairLoop {
	var ls []pairLoop
	for _, l := range append(laplaceLoops(), yukawaLoops()...) {
		if l.narrowed() {
			ls = append(ls, l)
		}
	}
	return ls
}

// The assembly addresses pairBlock by these offsets (p2p_amd64.s).
func TestPairBlockLayout(t *testing.T) {
	var blk pairBlock
	for _, f := range []struct {
		name      string
		off, want uintptr
	}{
		{"x", unsafe.Offsetof(blk.x), 8}, {"y", unsafe.Offsetof(blk.y), 2056},
		{"z", unsafe.Offsetof(blk.z), 4104}, {"acc", unsafe.Offsetof(blk.acc), 6152},
		{"x32", unsafe.Offsetof(blk.x32), 8200}, {"y32", unsafe.Offsetof(blk.y32), 9224},
		{"z32", unsafe.Offsetof(blk.z32), 10248}, {"part", unsafe.Offsetof(blk.part), 11272},
	} {
		if f.off != f.want {
			t.Errorf("pairBlock.%s at %d, the assembly reads it at %d", f.name, f.off, f.want)
		}
	}
	if unsafe.Sizeof(src32{}) != 16 {
		t.Errorf("src32 is %d bytes, the assembly steps 16", unsafe.Sizeof(src32{}))
	}
}

// sumAbs is Σ|q|·G(r) per target by k's portable float64 loop.
func sumAbs(k *base, chunks []P2PChunk, tpts []geom.Point) []float64 {
	var abs []P2PChunk
	for _, ch := range chunks {
		q := make([]float64, len(ch.Q))
		for i, v := range ch.Q {
			q[i] = math.Abs(v)
		}
		abs = append(abs, P2PChunk{Pts: ch.Pts, Q: q})
	}
	out := make([]float64, len(tpts))
	loopOn(k.pair.portable(), k.lambda).P2P(abs, tpts, out)
	return out
}

// allow32 is the documented bound per target of kernel k's float32 loop
// against its float64 twin (pairBound32).
func allow32(k *base, chunks []P2PChunk, tpts []geom.Point) []float64 {
	lap := sumAbs(laplaceOn(laplaceGo), chunks, tpts)
	if k.lambda == 0 {
		for i := range lap {
			lap[i] *= pairBound32
		}
		return lap
	}
	out := sumAbs(k, chunks, tpts)
	for i := range out {
		out[i] = pairBound32Yukawa*out[i] + underflow32*lap[i]
	}
	// Below float32's normal range a sum rounds by up to 2⁻¹⁵⁰ of the image
	// per term, the block's scale in the potential.
	var n int
	for _, ch := range chunks {
		n += len(ch.Pts)
	}
	var blk pairBlock
	for lo := 0; lo < len(tpts); lo += blockTargets {
		hi := min(len(tpts), lo+blockTargets)
		blk.load(tpts[lo:hi])
		if _, ok := blk.narrow32(k.lambda); ok {
			for i := lo; i < hi; i++ {
				out[i] += float64(n) * 0x1p-149 * blk.scale
			}
		}
	}
	return out
}

// within32 fails t where a float32 loop's got leaves the documented bound
// (allow32) of its float64 twin's want.
func within32(t *testing.T, name string, got, want, allow []float64) {
	t.Helper()
	for i := range want {
		if d := math.Abs(got[i] - want[i]); !(d <= allow[i]) {
			t.Fatalf("%s: potential %d is %v, the float64 loop's %v: off by %.2e, %.2f of the bound", name, i, got[i], want[i], d, d/allow[i])
		}
	}
}

// Above pF32 NewLaplace binds a float64 loop, and its potentials are the
// bits that loop gave before the float32 loops existed, recorded with it
// bound (go, whose bits the AVX2 loop repeats, and avx512).
func TestLaplaceFloat64GoldenAboveF32(t *testing.T) {
	k := NewLaplace(pF32 + 1).(*base)
	if k.pair != bestLaplacePair {
		t.Fatalf("order %d binds %v, want the float64 %v", pF32+1, k.pair, bestLaplacePair)
	}
	if k6 := NewLaplace(OrderForDigits(6)).(*base); k6.pair != bestLaplacePair {
		t.Fatalf("six digits bind %v", k6.pair)
	}
	rng := rand.New(rand.NewSource(43))
	center := geom.Point{X: 0.5, Y: 0.5, Z: 0.5}
	tpts := randBox(rng, center, 0.25, 70)
	var chunks []P2PChunk
	for c, n := range []int{37, 1, 300} {
		spts := randBox(rng, center.Add(geom.Point{X: float64(c-1) * 0.25}), 0.25, n)
		if c == 0 {
			copy(spts, tpts[:5])
		}
		chunks = append(chunks, P2PChunk{Pts: spts, Q: randCharges(rng, n)})
	}
	golden := &laplaceGoldenGo
	if k.pair == laplaceAVX512 {
		golden = &laplaceGoldenAVX512
	}
	pot := make([]float64, len(tpts))
	k.P2P(chunks, tpts, pot)
	for i, v := range pot {
		if math.Float64bits(v) != golden[i] {
			t.Errorf("%v: potential %d is %#x, recorded %#x", k.pair, i, math.Float64bits(v), golden[i])
		}
	}
}

var laplaceGoldenGo = [70]uint64{
	0x3ff8e2ea3fd653e8, 0xc0202813a72cd21e, 0x40167b36aa25fdbd, 0xc0301c36265f4a7b,
	0xc01c5e4768afe7a6, 0xc01eb9936beb9ed4, 0xc03bbc13e15cabc8, 0x40073f6a4ef2fc2c,
	0xc02e374f8de561ca, 0xc03d5f735715cccf, 0xc04458c1f26adb36, 0x4028fd0a760b932b,
	0x4020bcab517cdc16, 0xc03073ae41653fad, 0xc041fec5606aee5a, 0xc0214d956338da1c,
	0xc01d5d51fa24e7bc, 0x3fa4ad7770af6dc0, 0xc02b4af59a9b4e7d, 0x402327b0e365603f,
	0xc02843c383a9010a, 0x400435326d7f67b4, 0xc027410c5fc47909, 0x401dcfc44ce9111e,
	0xc02e4ad95e7196e0, 0xc0106604d7543eda, 0xc02f1cde8676b1c8, 0x3ff8af3af5e54ec2,
	0xc04133abe3bf6def, 0xc0252bd802496b2c, 0x401a332f0d40fa3f, 0x403203e57f954295,
	0x4025aab72efcfec5, 0x3fc6d3db088a6b70, 0xc02c76f4696dd130, 0x4010bb2cb2f2d07c,
	0xc020c9e2b018bbff, 0xc04ea7f72dda4281, 0xc042c2cff6f5b5ac, 0xc011824bf5708f4e,
	0xc036bf27155ab80a, 0xc012ed0f9c431754, 0xc028733d894dd8cf, 0xc030c32356512180,
	0xc01edc95caa2be1a, 0xc035fc14ec24917c, 0xc02230e7bc1bf55e, 0xc0334a6088764f0a,
	0x40020edcd12aba75, 0x4033d989626cc501, 0x4012f20ffdde1013, 0x401f358a7a1c69eb,
	0xc01a84af3ee475ba, 0xc026dc864b9b32bd, 0xc02a87ed279bd197, 0xc01bb268b671b861,
	0xc01c00cff073dccf, 0xc020291505270de3, 0xc01d3c30a728fbc4, 0x403361892dd3c041,
	0x4041e3bbcecc2b6e, 0xc0005564f25f7c2f, 0xc041501fea5bb50a, 0xc0488d33be7ab757,
	0xc027fbc69ea30e06, 0x3fe47dd6d3fa65a0, 0xc048e5b2709fd1c6, 0xc0338a020555dbcd,
	0xc034f247ad0688ad, 0xc042fa00b37e97d5,
}

var laplaceGoldenAVX512 = [70]uint64{
	0x3ff8e2ea3fd653e7, 0xc0202813a72cd21a, 0x40167b36aa25fdba, 0xc0301c36265f4a7b,
	0xc01c5e4768afe7a0, 0xc01eb9936beb9ed1, 0xc03bbc13e15cabca, 0x40073f6a4ef2fc45,
	0xc02e374f8de561cc, 0xc03d5f735715ccd1, 0xc04458c1f26adb37, 0x4028fd0a760b9329,
	0x4020bcab517cdc1a, 0xc03073ae41653fab, 0xc041fec5606aee5a, 0xc0214d956338da1e,
	0xc01d5d51fa24e7aa, 0x3fa4ad7770af7148, 0xc02b4af59a9b4e7d, 0x402327b0e365603d,
	0xc02843c383a9010b, 0x400435326d7f67ba, 0xc027410c5fc478fd, 0x401dcfc44ce9111e,
	0xc02e4ad95e7196da, 0xc0106604d7543ee0, 0xc02f1cde8676b1bc, 0x3ff8af3af5e54ee8,
	0xc04133abe3bf6ded, 0xc0252bd802496b28, 0x401a332f0d40fa3f, 0x403203e57f954293,
	0x4025aab72efcfec6, 0x3fc6d3db088a6b1e, 0xc02c76f4696dd13e, 0x4010bb2cb2f2d080,
	0xc020c9e2b018bbfd, 0xc04ea7f72dda4285, 0xc042c2cff6f5b5aa, 0xc011824bf5708f48,
	0xc036bf27155ab800, 0xc012ed0f9c431754, 0xc028733d894dd8c9, 0xc030c3235651217c,
	0xc01edc95caa2be17, 0xc035fc14ec24917f, 0xc02230e7bc1bf566, 0xc0334a6088764f0a,
	0x40020edcd12aba71, 0x4033d989626cc4f8, 0x4012f20ffdde0ffd, 0x401f358a7a1c69ef,
	0xc01a84af3ee475bc, 0xc026dc864b9b32c5, 0xc02a87ed279bd191, 0xc01bb268b671b857,
	0xc01c00cff073dcd9, 0xc020291505270de3, 0xc01d3c30a728fbd2, 0x403361892dd3c043,
	0x4041e3bbcecc2b6f, 0xc0005564f25f7c2e, 0xc041501fea5bb50d, 0xc0488d33be7ab756,
	0xc027fbc69ea30e0a, 0x3fe47dd6d3fa654b, 0xc048e5b2709fd1c3, 0xc0338a020555dbd3,
	0xc034f247ad0688a6, 0xc042fa00b37e97d8,
}

// Above pF32 NewYukawa binds a float64 loop, and its potentials at p = 15
// and 17 are the bits that loop gave before the float32 Yukawa loops
// existed, recorded with it bound (go and avx512; the loops read no order).
// TestYukawaP2PGolden holds the portable loop on a fixture of its own.
func TestYukawaFloat64GoldenAboveF32(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden recorded on amd64")
	}
	rng := rand.New(rand.NewSource(45))
	center := geom.Point{X: 0.5, Y: 0.5, Z: 0.5}
	tpts := randBox(rng, center, 0.25, 70)
	var chunks []P2PChunk
	for c, n := range []int{37, 1, 300} {
		spts := randBox(rng, center.Add(geom.Point{X: float64(c-1) * 0.25}), 0.25, n)
		if c == 0 {
			copy(spts, tpts[:5])
		}
		chunks = append(chunks, P2PChunk{Pts: spts, Q: randCharges(rng, n)})
	}
	for _, p := range []int{15, 17} {
		k := NewYukawa(p, 4).(*base)
		if p <= pF32 || k.pair != bestYukawaPair {
			t.Fatalf("order %d binds %v, want the float64 %v", p, k.pair, bestYukawaPair)
		}
		golden := &yukawaGoldenGo
		switch k.pair {
		case yukawaGo:
		case yukawaAVX512:
			golden = &yukawaGoldenAVX512
		default:
			t.Skipf("no bits recorded for %v", k.pair)
		}
		pot := make([]float64, len(tpts))
		k.P2P(chunks, tpts, pot)
		for i, v := range pot {
			if math.Float64bits(v) != golden[i] {
				t.Errorf("p %d, %v: potential %d is %#x, recorded %#x", p, k.pair, i, math.Float64bits(v), golden[i])
			}
		}
	}
}

var yukawaGoldenGo = [70]uint64{
	0xc03087e76759ae04, 0xc0234a70a6e1e109, 0xc03001e59581421a, 0xc02da334886d4a6a,
	0xc0318da98061fee0, 0xc032478e4aba9ddd, 0xc04090365c80a281, 0xc04f464e15246a6d,
	0xc035a1fc65a8eed3, 0xc03eac92e25f045b, 0xc03f6724d1aef4da, 0xc0360b1ed44cd81e,
	0xc040ac45457c38bc, 0xc032555b6e14ad17, 0xc02608e9f7459fab, 0xc039da121c38456e,
	0xc035819e039d9ecc, 0xc03a5de2076eaffc, 0xc038e7a5174a9a9d, 0xc0306ccedc994e8d,
	0xc0381f9f49269cd6, 0xc04f5b55beb52b32, 0xc02743f663cf8618, 0xc0308f6c077d2561,
	0xc033340ddd032a87, 0xc03d22bb2f2ab218, 0xc040828698db55b0, 0xc0356117cbf31d2d,
	0xc045beabc0d6427d, 0xc0304bcba02ceefb, 0xc0499feefd86cd99, 0xc03a84c6e85b7aca,
	0xc035fe256d6ffa72, 0xc034733fb975a357, 0xc0347617d4e4453f, 0xc03a217c4064e371,
	0xc0331109aa8a4261, 0xc03de73b05a78f14, 0xc042a1891c49472e, 0xc038b0581a394c2c,
	0xc04587730954789c, 0xc03a5bdb59ccb6b0, 0xc03aace879c9cef2, 0xc03a4b183696d392,
	0xc034e39806d7ff9e, 0xc035a5cc886252ee, 0xc03742ac9e66780f, 0xc038cafced0a8fb2,
	0xc02dcf33c65e4669, 0xc03018d600974a37, 0xc039283ba815e252, 0xc038a9e4608f1d3f,
	0xc03a35afe52be600, 0xc033576a1c6d6a04, 0xc033f2d77564e3ff, 0xc036551c975f89fe,
	0xc02f1ea350e56bdc, 0xc0333951a8955efd, 0xc0331fcfbb413eb7, 0xc03f58c363f5d902,
	0xc03f53932eafdd6d, 0xc02cd264984fc25d, 0xc04125ce641ebd50, 0xc0361214f0c3e866,
	0xc03ce930d4740d9f, 0xc034a9371bc0a617, 0xc04068f20ceda609, 0xc040a4753a62ab18,
	0xc030846f61de7169, 0xc03df9f25187dabd,
}

var yukawaGoldenAVX512 = [70]uint64{
	0xc03087e76759ae06, 0xc0234a70a6e1e106, 0xc03001e59581421a, 0xc02da334886d4a68,
	0xc0318da98061fedd, 0xc032478e4aba9dde, 0xc04090365c80a27f, 0xc04f464e15246a6a,
	0xc035a1fc65a8eed3, 0xc03eac92e25f0459, 0xc03f6724d1aef4d8, 0xc0360b1ed44cd81c,
	0xc040ac45457c38bd, 0xc032555b6e14ad14, 0xc02608e9f7459fa7, 0xc039da121c384570,
	0xc035819e039d9ecc, 0xc03a5de2076eb000, 0xc038e7a5174a9a9d, 0xc0306ccedc994e8d,
	0xc0381f9f49269cd2, 0xc04f5b55beb52b30, 0xc02743f663cf861c, 0xc0308f6c077d2560,
	0xc033340ddd032a89, 0xc03d22bb2f2ab216, 0xc040828698db55b1, 0xc0356117cbf31d2d,
	0xc045beabc0d6427c, 0xc0304bcba02ceefa, 0xc0499feefd86cd9a, 0xc03a84c6e85b7ac9,
	0xc035fe256d6ffa75, 0xc034733fb975a354, 0xc0347617d4e4453d, 0xc03a217c4064e372,
	0xc0331109aa8a4262, 0xc03de73b05a78f18, 0xc042a1891c49472f, 0xc038b0581a394c2b,
	0xc04587730954789b, 0xc03a5bdb59ccb6b1, 0xc03aace879c9cef8, 0xc03a4b183696d391,
	0xc034e39806d7ff9c, 0xc035a5cc886252e9, 0xc03742ac9e667812, 0xc038cafced0a8fb2,
	0xc02dcf33c65e466a, 0xc03018d600974a39, 0xc039283ba815e255, 0xc038a9e4608f1d3c,
	0xc03a35afe52be5ff, 0xc033576a1c6d6a05, 0xc033f2d77564e400, 0xc036551c975f8a01,
	0xc02f1ea350e56be0, 0xc0333951a8955efe, 0xc0331fcfbb413eb5, 0xc03f58c363f5d901,
	0xc03f53932eafdd6e, 0xc02cd264984fc263, 0xc04125ce641ebd4e, 0xc0361214f0c3e869,
	0xc03ce930d4740d9b, 0xc034a9371bc0a61a, 0xc04068f20ceda60a, 0xc040a4753a62ab15,
	0xc030846f61de7164, 0xc03df9f25187dac0,
}

// loopBound32 is a float32 loop's documented relative error in 1/r (its w
// ≈ 2/r, Laplace's and Yukawa's alike), in units of 2⁻²⁴ (p2p_amd64.go).
func loopBound32(l pairLoop) float64 {
	if l == laplaceF32AVX2 || l == yukawaF32AVX2 {
		return 6
	}
	return 3
}

// termBound32 is a float32 loop's documented relative error in one pair's
// term at t = −λ′r, in units of 2⁻²⁴: loopBound32 for 1/r, and for Yukawa
// four more for the product and the exponential's reduction and
// polynomial, and loopBound32 + 2 times |t| for t's own error.
func termBound32(l pairLoop, t float64) float64 {
	if l < yukawaGo {
		return loopBound32(l)
	}
	return loopBound32(l) + 4 + (loopBound32(l)+2)*math.Abs(t)
}

// Per pair: one source at the image's origin, targets on an axis at
// log-uniform r in 2⁻⁸…2³¹, each float32 loop's term against float64's
// G(√r²) of the same float32 r² (and for Yukawa the same float32 λ′, at
// λ′ = ½, Λ and 4) within termBound32 — and, for Yukawa where e^{−λ′r} is
// below 2⁻¹²⁵ (the AVX2 loop's cut-off), within 2⁻¹²⁵/r. Measured worst
// for Laplace 2.1·2⁻²⁴ on AVX-512, 4.1 on AVX2.
func TestFloat32LoopsPerPair(t *testing.T) {
	n := 200000
	if testing.Short() {
		n = 20000
	}
	ns := []src32{{q: 0.5}}
	src := []geom.Point{{X: -1}} // never equal: no hazard is excused
	for _, l := range loops32() {
		lams := []float32{0}
		if l >= yukawaGo {
			lams = []float32{0.5, lambda32Max, 4}
		}
		for _, lam := range lams {
			rng := rand.New(rand.NewSource(5))
			var blk pairBlock
			blk.n = blockTargets
			var worst, sum float64
			for done := 0; done < n; done += blockTargets {
				for i := range blk.x32 {
					r := float32(math.Pow(2, 39*rng.Float64()-8))
					if rng.Intn(2) == 0 {
						r = -r
					}
					blk.x32[i], blk.y32[i], blk.z32[i] = r, 0, 0
				}
				if !pairs32On(l, lam, ns, src, &blk) {
					t.Fatalf("%v: hazard at r ≥ 2⁻⁸", l)
				}
				for i, x := range blk.x32 {
					r := math.Sqrt(float64(x * x))
					tt := -float64(lam) * r
					want := math.Exp(tt) / r
					d := math.Abs(float64(blk.part[i]) - want)
					if math.Exp(tt) < 0x1p-125 {
						if !(d <= 0x1p-125/r) {
							t.Fatalf("%v λ′ %g: term at r=%g is %v, want %v within 2⁻¹²⁵/r", l, lam, r, blk.part[i], want)
						}
						continue
					}
					rel := d / want * 0x1p24
					worst, sum = math.Max(worst, rel), sum+rel
					if !(rel <= termBound32(l, tt)) {
						t.Fatalf("%v λ′ %g: term at r=%g is %v, %.2f·2⁻²⁴ from %v (bound %.2f)", l, lam, r, blk.part[i], rel, want, termBound32(l, tt))
					}
				}
			}
			t.Logf("%v λ′ %g: worst %.2f·2⁻²⁴, mean %.2f over %d pairs", l, lam, worst, sum/float64(n), n)
		}
	}
}

// The hazard test, lane by lane: a source equal to a target in float64 is
// coincident and no hazard, in whichever of the 32 lanes of a register
// group it sits; one 1e-12 away narrows onto it and is a hazard; and so is
// one 2⁻⁹ of the half-extent away, below the least r summed.
func TestFloat32HazardLanes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tpts := randBox(rng, geom.Point{X: 0.5, Y: 0.5, Z: 0.5}, 1, blockTargets)
	var blk pairBlock
	blk.load(tpts)
	if !blk.narrow() {
		t.Fatal("a unit box did not narrow")
	}
	far := []geom.Point{{X: 3}, {Y: -3}}
	for _, l := range loops32() {
		for lane := range blockTargets {
			for _, c := range []struct {
				shift  float64
				hazard bool
			}{{0, false}, {1e-12, true}, {0x1p-9 / blk.scale, true}} {
				src := append([]geom.Point{tpts[lane].Add(geom.Point{Y: c.shift})}, far...)
				q := []float64{1, 1, 1}
				var ns [subChunk]src32
				if !blk.narrowSources(src, q, ns[:]) {
					t.Fatal("narrowSources refused unit charges near the block")
				}
				if got := !pairs32On(l, 1, ns[:len(src)], src, &blk); got != c.hazard {
					t.Fatalf("%v: source %g from target %d: hazard %v, want %v", l, c.shift, lane, got, c.hazard)
				}
			}
		}
	}
}

// hazardFixtures are near fields the float32 image cannot resolve or sits
// far from the origin of: a leaf of unit side whose sources include pairs
// 1e-9 of the side from targets (narrowing would collapse them), and the
// same leaf centred at 1e6. Charges of both signs.
func hazardFixtures(rng *rand.Rand) map[string][2][]geom.Point {
	c := geom.Point{X: 0.5, Y: 0.5, Z: 0.5}
	tpts := randBox(rng, c, 1, 300)
	spts := randBox(rng, c, 3, 600)
	for i := 0; i < 300; i += 7 {
		spts[i] = tpts[i].Add(geom.Point{X: 1e-9, Z: -1e-9})
	}
	off := geom.Point{X: 1e6, Y: 1e6, Z: 1e6}
	tFar, sFar := make([]geom.Point, len(tpts)), make([]geom.Point, len(spts))
	for i := range tpts {
		tFar[i] = tpts[i].Add(off)
	}
	for i := range spts {
		sFar[i] = randBox(rng, c, 3, 1)[0].Add(off)
	}
	return map[string][2][]geom.Point{"1e-9 pairs": {spts, tpts}, "centred at 1e6": {sFar, tFar}}
}

// The hazards on whole near fields, Yukawa at λ = 2 (λ′ = 1 = Λ on these
// blocks, whose half-extent is about ½: the float32 loop runs, as the test
// asserts): the float32 binding matches its float64 twin within 10⁻⁵ (the
// digits of pF32) of the largest potential, with no NaN and no pair dropped
// — a dropped 1e-9 pair would be off by 1e9. Where a 1e-9 pair falls in a
// block and sub-chunk, that whole block and sub-chunk is recomputed in
// float64: one chunk of the fixture against one block gives the float64
// bits.
func TestFloat32Hazards(t *testing.T) {
	for name, fx := range hazardFixtures(rand.New(rand.NewSource(19))) {
		spts, tpts := fx[0], fx[1]
		q := randCharges(rand.New(rand.NewSource(20)), len(spts))
		chunks := []P2PChunk{{Pts: spts[:250], Q: q[:250]}, {Pts: spts[250:], Q: q[250:]}}
		for lo := 0; lo < len(tpts); lo += blockTargets {
			var blk pairBlock
			blk.load(tpts[lo:min(len(tpts), lo+blockTargets)])
			if lam, ok := blk.narrow32(2); !ok || lam != lambda32Max {
				t.Fatalf("%s: the block at %d runs at λ′ = %v (float32 %v), want Λ = %v", name, lo, lam, ok, float64(lambda32Max))
			}
		}
		for _, l := range loops32() {
			k, twin := loopOn(l, 2), loopOn(l.wide(), 2)
			got, want := make([]float64, len(tpts)), make([]float64, len(tpts))
			k.P2P(chunks, tpts, got)
			twin.P2P(chunks, tpts, want)
			var maxAbs float64
			for _, v := range want {
				maxAbs = math.Max(maxAbs, math.Abs(v))
			}
			for i := range want {
				if d := math.Abs(got[i] - want[i]); !(d <= 1e-5*maxAbs) {
					t.Fatalf("%s, %s/%v: potential %d is %v, the float64 loop's %v", name, k.name, l, i, got[i], want[i])
				}
			}
			within32(t, name+"/"+k.name+"/"+l.String(), got, want, allow32(k, chunks, tpts))
			if name == "1e-9 pairs" {
				one, wide := make([]float64, 200), make([]float64, 200)
				k.S2T(spts[:250], q[:250], tpts[:200], one)
				twin.S2T(spts[:250], q[:250], tpts[:200], wide)
				for i := range one {
					if math.Float64bits(one[i]) != math.Float64bits(wide[i]) {
						t.Fatalf("%s, %s/%v: a block with a 1e-9 pair gives %v at %d, not the float64 loop's %v", name, k.name, l, one[i], i, wide[i])
					}
				}
			}
		}
	}
}

// nearField applies the near field of a level-3 grid over the unit cube:
// each cell's targets against the sources of the cells around it, one chunk
// per cell, through P2P — the shape of the executor's near task.
func nearField(k Kernel, spts []geom.Point, q []float64, tpts []geom.Point) []float64 {
	const cells = 8
	cellOf := func(p geom.Point) [3]int {
		c := func(v float64) int { return min(cells-1, max(0, int(v*cells))) }
		return [3]int{c(p.X), c(p.Y), c(p.Z)}
	}
	type cell struct {
		src []geom.Point
		q   []float64
		tgt []int
	}
	grid := map[[3]int]*cell{}
	at := func(k [3]int) *cell {
		if grid[k] == nil {
			grid[k] = &cell{}
		}
		return grid[k]
	}
	for i, s := range spts {
		c := at(cellOf(s))
		c.src, c.q = append(c.src, s), append(c.q, q[i])
	}
	for i, tp := range tpts {
		c := at(cellOf(tp))
		c.tgt = append(c.tgt, i)
	}
	pot := make([]float64, len(tpts))
	for key, c := range grid {
		if len(c.tgt) == 0 {
			continue
		}
		var chunks []P2PChunk
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				for dz := -1; dz <= 1; dz++ {
					if n := grid[[3]int{key[0] + dx, key[1] + dy, key[2] + dz}]; n != nil && len(n.src) > 0 {
						chunks = append(chunks, P2PChunk{Pts: n.src, Q: n.q})
					}
				}
			}
		}
		tp := make([]geom.Point, len(c.tgt))
		for i, ti := range c.tgt {
			tp[i] = tpts[ti]
		}
		out := make([]float64, len(tp))
		k.P2P(chunks, tp, out)
		for i, ti := range c.tgt {
			pot[ti] = out[i]
		}
	}
	return pot
}

// TestFloat32PairOrder certifies pF32 and lambda32Max. The near field of a
// cube and of a sphere (N = 16 000 each side, about 30 points per cell,
// mixed-sign charges) through every float32 loop — Yukawa's at λ times the
// cell side 0.1, 1, 2Λ and 10 — against the same near field summed pair by
// pair with Kernel.Direct in float64: the relative L2 error e certifies d
// digits where e ≤ 10^-d / 10, and pF32 is the order of the most digits
// certified everywhere. At λ·side = 2Λ the cube's blocks run their float32
// loop at λ′ = Λ, the largest λ′ the driver allows one (at 10 they run
// the float64 twin). Measured at Λ: rel L2 5e-8 on the cube, 4.3e-7 on the
// sphere, where λ′ = 2 would give 7.4e-7 and 4 would give 1.2e-6.
func TestFloat32PairOrder(t *testing.T) {
	ls := loops32()
	if len(ls) == 0 {
		t.Skip("no float32 pair loop on this CPU")
	}
	n := 16000
	if testing.Short() {
		n = 4000
	}
	const side = 1.0 / 8 // nearField's cells
	certified, maxLam := 99, 0.0
	for _, d := range []points.Distribution{points.Cube, points.Sphere} {
		spts, tpts := points.Generate(d, n, 1), points.Generate(d, n, 2)
		q := points.Charges(n, 3)
		for i := range q {
			q[i] -= 0.5 // both signs
		}
		for _, lambda := range []float64{0, 0.1 / side, 1 / side, 2 * lambda32Max / side, 10 / side} {
			portable := loopOn(laplaceGo, 0)
			if lambda > 0 {
				portable = loopOn(yukawaGo, lambda)
			}
			want := nearField(directKernel{portable}, spts, q, tpts)
			for _, l := range ls {
				if l.portable() != portable.pair {
					continue
				}
				k := &imageProbe{base: loopOn(l, lambda)}
				got := nearField(k, spts, q, tpts)
				var num, den float64
				for i := range got {
					num += (got[i] - want[i]) * (got[i] - want[i])
					den += want[i] * want[i]
				}
				e := math.Sqrt(num / den)
				digits := int(math.Floor(-math.Log10(e) - 1))
				certified, maxLam = min(certified, digits), max(maxLam, k.maxLam)
				t.Logf("%s/%v λ·side %g (λ′ ≤ %g), distribution %d: rel L2 %.2e, certifies %d digits (p = %d)",
					k.name, l, lambda*side, k.maxLam, d, e, digits, OrderForDigits(digits))
			}
		}
	}
	if OrderForDigits(certified) != pF32 {
		t.Errorf("certified %d digits, order %d; pF32 is %d", certified, OrderForDigits(certified), pF32)
	}
	if ls[len(ls)-1] >= yukawaGo && maxLam != lambda32Max {
		t.Errorf("certified up to λ′ = %g; lambda32Max is %g", maxLam, float64(lambda32Max))
	}
}

// The S→T price follows the driver's guard: a Yukawa float32 kernel prices
// targets in a box of side s at its own loop where λ·s ≤ Λ, and every block
// of targets drawn in such a box runs in float32 (narrow32); beyond Λ it
// prices at the float64 twin, which a block spanning the box runs at λ·s =
// 10. Price reads the box side of each level from the prepared root.
func TestPairPriceFollowsTheGuard(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, l := range loops32() {
		if l < yukawaGo {
			continue
		}
		for _, side := range []float64{1.0 / 64, 1, 64} {
			for _, ls := range []float64{0.1, 0.5, 1, 1.01, 2, 10} { // λ·side
				k := loopOn(l, ls/side)
				want := l
				if ls > lambda32Max {
					want = l.wide()
				}
				if got := k.pairAt(side); got != want {
					t.Errorf("%v, λ·side %g: priced at %v, want %v", l, ls, got, want)
				}
				for range 20 {
					var blk pairBlock
					blk.load(randBox(rng, geom.Point{X: 3 * side}, side, 2+rng.Intn(blockTargets-1)))
					if lam, ok := blk.narrow32(k.lambda); !ok && ls <= lambda32Max {
						t.Fatalf("%v, λ·side %g: a block in the box runs the twin at λ′ = %g", l, ls, lam)
					}
				}
				var blk pairBlock
				blk.load([]geom.Point{{}, {X: side, Y: side, Z: side}})
				if _, ok := blk.narrow32(k.lambda); ok && ls == 10 {
					t.Errorf("%v, λ·side %g: a block spanning the box runs in float32", l, ls)
				}
			}
		}
	}
	k := NewYukawa(OrderForDigits(3), 4).(*base)
	if err := k.Prepare(1, 4); err != nil {
		t.Fatal(err)
	}
	for level := range 5 {
		want := k.pair
		if side := math.Ldexp(1, -level); 4*side > lambda32Max {
			want = k.pair.wide()
		}
		if got := Price(k, level).S2T; got != pairNanos[want] {
			t.Errorf("level %d: S→T priced %g ns a pair, want %v's %g", level, got, want, pairNanos[want])
		}
	}
}

// imageProbe is a kernel that records the largest λ′ at which the driver
// runs one of its target blocks on a float32 loop.
type imageProbe struct {
	*base
	maxLam float64
}

func (k *imageProbe) P2P(chunks []P2PChunk, tpts []geom.Point, pot []float64) {
	for lo := 0; lo < len(tpts); lo += blockTargets {
		var blk pairBlock
		blk.load(tpts[lo:min(len(tpts), lo+blockTargets)])
		if lam, ok := blk.narrow32(k.lambda); ok {
			k.maxLam = max(k.maxLam, float64(lam))
		}
	}
	k.base.P2P(chunks, tpts, pot)
}

// directKernel is a kernel whose P2P sums Kernel.Direct pair by pair, in
// float64 and without the pair loops.
type directKernel struct{ *base }

func (k directKernel) P2P(chunks []P2PChunk, tpts []geom.Point, pot []float64) {
	for ti, tp := range tpts {
		for _, ch := range chunks {
			for si, s := range ch.Pts {
				if s != tp {
					pot[ti] += ch.Q[si] * k.Direct(tp, s)
				}
			}
		}
	}
}

// ref32R2 is the float32 loops' r² of target lane i and source s: a square
// and two fused multiply-adds, computed exactly in float64 and rounded to
// float32 once per step. ok is false where the pair is a hazard — r² below
// r2Min and the float64 coordinates (src) differ — and skip where it is
// coincident.
func ref32R2(blk *pairBlock, i int, s src32, src geom.Point) (r2 float32, skip, ok bool) {
	dx, dy, dz := blk.x32[i]-s.x, blk.y32[i]-s.y, blk.z32[i]-s.z
	r2 = float32(dx * dx)
	r2 = float32(float64(dy)*float64(dy) + float64(r2))
	r2 = float32(float64(dz)*float64(dz) + float64(r2))
	if r2 >= r2Min {
		return r2, false, true
	}
	return r2, true, src.X == blk.x[i] && src.Y == blk.y[i] && src.Z == blk.z[i]
}

// laplacePairs32Ref is the float32 Laplace loops' portable reference: their
// r² (ref32R2), a correctly rounded 1/√r², the float32 sum in source order.
// It reports a hazard as the loops do, and adds each target's Σ|term| to
// mag.
func laplacePairs32Ref(ns []src32, src []geom.Point, blk *pairBlock, mag []float64) bool {
	for i := range (blk.n + blockLanes - 1) &^ (blockLanes - 1) {
		var acc float32
		for si, s := range ns {
			r2, skip, ok := ref32R2(blk, i, s, src[si])
			if !ok {
				return false
			}
			if skip {
				continue
			}
			term := 2 * s.q * float32(1/math.Sqrt(float64(r2)))
			acc += term
			mag[i] += math.Abs(float64(term))
		}
		blk.part[i] = acc
	}
	return true
}

// yukawaPairs32Ref is the same for the float32 Yukawa loops at λ′ = lam: a
// correctly rounded float32 e^{−λ′r}/r of the float32 r² and λ′. It adds
// each target's Σ|term|·(1 + |t|) to mag, the scale of a loop's error where
// e^t is a normal float32, and Σ|q/2|·(2/r + 1) to tiny, the scale of what
// it may lose or gain below that.
func yukawaPairs32Ref(lam float32, ns []src32, src []geom.Point, blk *pairBlock, mag, tiny []float64) bool {
	for i := range (blk.n + blockLanes - 1) &^ (blockLanes - 1) {
		var acc float32
		for si, s := range ns {
			r2, skip, ok := ref32R2(blk, i, s, src[si])
			if !ok {
				return false
			}
			if skip {
				continue
			}
			r := math.Sqrt(float64(r2))
			t := -float64(lam) * r
			term := 2 * s.q * float32(math.Exp(t)/r)
			acc += term
			mag[i] += math.Abs(float64(term)) * (1 - t)
			tiny[i] += math.Abs(float64(s.q)) * (2/r + 1)
		}
		blk.part[i] = acc
	}
	return true
}

// FuzzPairLoops draws a near field — target count, chunk sizes, box scale
// and offset, charge signs and magnitude, coincident and close pairs, and a
// Yukawa λ whose λ′ spans 0.005…100, on either side of Λ — and runs every
// pair loop this CPU runs on it, Yukawa's at λ = 2 (λr across the box
// scales' eighty decades) and at the drawn λ. The float64 vector loops are
// held to the portable one: AVX2 to the bit, AVX-512 and the Yukawa loops
// within their per-pair bounds (2 and 4 ulp) plus the rounding of their
// sums, (4 + sources)·2⁻⁵² of Σ|q|/r per target; each float32 loop to its
// portable float32 reference on the same narrowed block — the same hazard
// verdict, and per target within (loopBound32 + 2 + terms)·2⁻²⁴ of the
// reference's mag for Laplace, and for Yukawa (loopBound32 + 4 + terms)·2⁻²⁴
// of it (the exponential's two ulp) plus 2⁻¹²⁴ of its tiny and terms·2⁻¹⁴⁹
// (a subnormal sum's rounding) — and, through the driver, to its float64
// twin within allow32.
func FuzzPairLoops(f *testing.F) {
	f.Add(int64(1), uint16(250), uint16(250), 0.0, 0.0, uint8(0), 0.0)
	f.Add(int64(2), uint16(65), uint16(300), -12.0, 6.0, uint8(1), 3.0)
	f.Add(int64(3), uint16(1), uint16(17), 12.0, -3.0, uint8(2), -20.0)
	f.Add(int64(4), uint16(300), uint16(40), -3.0, 9.0, uint8(3), 20.0)
	f.Add(int64(5), uint16(33), uint16(513), 30.0, 0.0, uint8(4), 0.0)
	f.Fuzz(func(t *testing.T, seed int64, nt, nsrc uint16, logScale, logOff float64, mode uint8, logQ float64) {
		if !(math.Abs(logScale) <= 40 && math.Abs(logOff) <= 12 && math.Abs(logQ) <= 30) {
			t.Skip("outside the loops' stated domain")
		}
		rng := rand.New(rand.NewSource(seed))
		nt, nsrc = nt%600, nsrc%700
		scale, qmag := math.Pow(10, logScale), math.Pow(10, logQ)
		off := geom.Point{X: math.Pow(10, logOff), Y: -math.Pow(10, logOff) / 3}
		if mode&4 != 0 {
			off = geom.Point{}
		}
		place := func(pts []geom.Point) {
			for i := range pts {
				pts[i] = pts[i].Scale(scale).Add(off)
			}
		}
		tpts := randBox(rng, geom.Point{}, 1, int(nt))
		spts := randBox(rng, geom.Point{X: 0.5}, 3, int(nsrc))
		for i := range spts {
			if i%5 == 0 && int(nt) > 0 {
				spts[i] = tpts[rng.Intn(int(nt))] // coincident
			}
		}
		if mode&1 != 0 && nt > 0 && nsrc > 3 {
			spts[3] = tpts[0].Add(geom.Point{X: 1e-3}) // close: below r2Min of a wide block
		}
		place(tpts)
		place(spts)
		q := make([]float64, nsrc)
		for i := range q {
			q[i] = qmag * rng.Float64()
			if mode&2 != 0 && rng.Intn(2) == 0 {
				q[i] = -q[i]
			}
		}
		var chunks []P2PChunk
		for lo := 0; lo < int(nsrc); {
			hi := min(int(nsrc), lo+1+rng.Intn(300))
			chunks = append(chunks, P2PChunk{Pts: spts[lo:hi], Q: q[lo:hi]})
			lo = hi
		}
		lambda := math.Pow(10, 4*rng.Float64()-2) / scale // λ′ ≈ λ·scale/2…λ·scale
		abs := sumAbs(laplaceOn(laplaceGo), chunks, tpts)
		for _, lam := range []float64{0, 2, lambda} {
			portable := loopOn(laplaceGo, lam)
			ls := laplaceLoops()
			if lam > 0 {
				portable, ls = loopOn(yukawaGo, lam), yukawaLoops()
			}
			want := make([]float64, nt)
			portable.P2P(chunks, tpts, want)
			for _, l := range ls {
				k := loopOn(l, lam)
				got := make([]float64, nt)
				k.P2P(chunks, tpts, got)
				name := fmt.Sprintf("%v/%v λ %g", k.name, l, lam)
				switch {
				case l.narrowed():
					twin := make([]float64, nt)
					loopOn(l.wide(), lam).P2P(chunks, tpts, twin)
					within32(t, name, got, twin, allow32(k, chunks, tpts))
				case bitExact(l):
					for i := range want {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("%s: potential %d is %v, the portable loop's %v", name, i, got[i], want[i])
						}
					}
				default:
					for i := range want {
						if d := math.Abs(got[i] - want[i]); !(d <= (4+float64(nsrc))*0x1p-52*abs[i]+0x1p-1022) {
							t.Fatalf("%s: potential %d is %v, the portable loop's %v", name, i, got[i], want[i])
						}
					}
				}
			}
		}
		// Each float32 loop against its float32 reference, block by block
		// and sub-chunk by sub-chunk, on what the driver would narrow.
		for _, l := range loops32() {
			limit := loopBound32(l)
			for lo := 0; lo < int(nt); lo += blockTargets {
				var blk, ref pairBlock
				tb := tpts[lo:min(int(nt), lo+blockTargets)]
				blk.load(tb)
				if !blk.narrow() {
					continue
				}
				lam := float32(lambda / blk.scale)
				ref = blk
				for _, ch := range chunks {
					for s := 0; s < len(ch.Pts); s += subChunk {
						src, qs := ch.Pts[s:min(len(ch.Pts), s+subChunk)], ch.Q[s:min(len(ch.Pts), s+subChunk)]
						var ns [subChunk]src32
						if !blk.narrowSources(src, qs, ns[:]) {
							continue
						}
						var mag, tiny [blockTargets]float64
						ok, refOK := pairs32On(l, lam, ns[:len(src)], src, &blk), false
						if l >= yukawaGo {
							refOK = yukawaPairs32Ref(lam, ns[:len(src)], src, &ref, mag[:], tiny[:])
						} else {
							refOK = laplacePairs32Ref(ns[:len(src)], src, &ref, mag[:])
						}
						if ok != refOK {
							t.Fatalf("%v: hazard %v, the reference's %v", l, !ok, !refOK)
						}
						if !ok {
							continue
						}
						bound := func(i int) float64 { return (limit + 2 + float64(len(src))) * 0x1p-24 * mag[i] }
						if l >= yukawaGo {
							bound = func(i int) float64 {
								return (limit+4+float64(len(src)))*0x1p-24*mag[i] + 0x1p-124*tiny[i] + float64(len(src))*0x1p-149
							}
						}
						for i := range tb {
							if d := math.Abs(float64(blk.part[i] - ref.part[i])); d > bound(i) {
								t.Fatalf("%v λ′ %g: target %d: partial %v, the reference's %v", l, lam, lo+i, blk.part[i], ref.part[i])
							}
						}
					}
				}
			}
		}
	})
}
