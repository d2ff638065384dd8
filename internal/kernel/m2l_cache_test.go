package kernel

import (
	"fmt"
	"maps"
	"math"
	"math/cmplx"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/sphharm"
)

// m2lCase is one list-2 geometry: boxes of side `side` separated by the
// lattice offset (dx,dy,dz).
type m2lCase struct {
	side       float64
	dx, dy, dz int
}

var m2lCases = []m2lCase{
	{0.125, 2, 0, 0},   // face-adjacent well-separated pair
	{0.125, 2, 1, -1},  // generic list-2 offset
	{0.125, 3, 3, 3},   // corner of the interaction lattice
	{0.25, -2, 0, 1},   // coarser level
	{0.0625, 0, -3, 2}, // finer level
}

func (c m2lCase) centers() (from, to geom.Point) {
	from = geom.Point{X: 0.5, Y: 0.5, Z: 0.5}
	to = from.Add(geom.Point{
		X: float64(c.dx) * c.side,
		Y: float64(c.dy) * c.side,
		Z: float64(c.dz) * c.side,
	})
	return
}

// maxCoefDiff is the max relative coefficient difference between two
// expansions, normalized by the largest magnitude in b.
func maxCoefDiff(a, b []complex128) float64 {
	var num, den float64
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > num {
			num = d
		}
		if m := cmplx.Abs(b[i]); m > den {
			den = m
		}
	}
	if den == 0 {
		return num
	}
	return num / den
}

// referenceM2L applies M->L through the full-layout complex reference engine
// (reference_test.go), which shares none of the production operators, cut
// to the offset's block (blockM2L).
func referenceM2L(k Kernel, from, to geom.Point, side float64, in []complex128) []complex128 {
	b := k.(*base)
	o, ok := b.M2LOffsetOf(from, to, side)
	if !ok {
		panic("referenceM2L: not a list-2 offset")
	}
	return blockM2L(m2lOrder(b.p, o), func(x []complex128) []complex128 {
		return packML(b.p, newRefEngine(k).translate(from, to, b.aM2L*side, unpackML(b.p, x), b.radOut, b.radReg))
	}, in)
}

// blockM2L is the full-order M->L xl cut to the top-left block of order po
// that the kernel tabulates for the offset: the input's degrees above po
// are zeroed before the translation and the output's after it.
func blockM2L(po int, xl func([]complex128) []complex128, in []complex128) []complex128 {
	n := sphharm.TriSize(po)
	x := append([]complex128(nil), in...)
	clear(x[n:])
	out := xl(x)
	clear(out[n:])
	return out
}

// zeroAbove fails unless every packed coefficient of x above degree po is
// exactly zero: a block apply leaves them as they were.
func zeroAbove(t *testing.T, what string, po int, x []complex128) {
	t.Helper()
	for i, v := range x[sphharm.TriSize(po):] {
		if v != 0 {
			t.Errorf("%s: coefficient %d above the block's degree %d is %v, want 0", what, sphharm.TriSize(po)+i, po, v)
			return
		}
	}
}

// randomML is a random packed expansion of a real potential: the imaginary
// part of every m = 0 coefficient is zero, as it is in every expansion the
// operators produce.
func randomML(rng *rand.Rand, k Kernel) []complex128 {
	b := k.(*base)
	m := make([]complex128, k.MLSize())
	for i := range m {
		m[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return packML(b.p, unpackML(b.p, m))
}

// TestM2LCachedMatchesProjection checks that the cached dense operator and
// the full-layout reference engine's spectral projection, cut to the
// offset's block (blockM2L), agree to near machine precision on every
// lattice offset class, for both kernels: the two are the same linear
// operator, projected at the same radius to the bit, so any input will do —
// every degree at O(1) — and they are held coefficient by coefficient. The
// coefficients above the block's order stay exactly zero.
func TestM2LCachedMatchesProjection(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, tc := range kernels(t) {
		b := tc.k.(*base)
		for _, c := range m2lCases {
			from, to := c.centers()
			m := randomML(rng, tc.k)
			cached := make([]complex128, tc.k.MLSize())
			tc.k.M2L(from, to, c.side, m, cached)
			what := fmt.Sprintf("%s offset (%d,%d,%d) side %g", tc.name, c.dx, c.dy, c.dz, c.side)
			if e := maxCoefDiff(cached, referenceM2L(tc.k, from, to, c.side, m)); e > 1e-12 {
				t.Errorf("%s: cached vs reference engine rel diff %.2e", what, e)
			}
			o := M2LOffset{DX: int8(c.dx), DY: int8(c.dy), DZ: int8(c.dz)}
			zeroAbove(t, what, m2lOrder(b.p, o), cached)
		}
	}
}

// offLatticeSide is the box side of the off-lattice cases: the I->I ones
// run at level 3 of the unit root cube.
const offLatticeSide = 0.125

// offLatticeCase is one translation handed a centre difference off its
// lattice (or, for I->I, on it but beyond its reach).
type offLatticeCase struct {
	op  string
	off geom.Point
}

// checkOffLatticePanics runs each case on every kernel and checks that it
// panics, naming the operator, the offset and the box side.
func checkOffLatticePanics(t *testing.T, tc testCase, cases []offLatticeCase) {
	t.Helper()
	const side = offLatticeSide
	from := geom.Point{X: 0.5, Y: 0.5, Z: 0.5}
	in := make([]complex128, max(tc.k.MLSize(), tc.k.ISize(3)))
	out := make([]complex128, len(in))
	for _, c := range cases {
		msg := func() (msg string) {
			defer func() { msg = fmt.Sprint(recover()) }()
			switch c.op {
			case "M2M":
				tc.k.M2M(from, from.Add(c.off), side, in, out)
			case "L2L":
				tc.k.L2L(from, from.Add(c.off), side, in, out)
			case "M2L":
				tc.k.M2L(from, from.Add(c.off), side, in, out)
			case "I2I":
				tc.k.I2I(geom.North, 3, c.off, in, out)
			}
			return "<nil>"
		}()
		off := from.Add(c.off).Sub(from)
		if c.op == "I2I" {
			off = c.off
		}
		for _, want := range []string{c.op, fmt.Sprint(off), fmt.Sprintf("side %g", side)} {
			if !strings.Contains(msg, want) {
				t.Errorf("%s %s %v: panic %q does not name %q", tc.name, c.op, c.off, msg, want)
			}
		}
	}
}

// TestTranslationsPanicOffLattice checks that an M->M or L->L handed a
// centre difference off its lattice panics, naming the operator, the offset
// and the box side: plans are root-relative, so such a call is a
// programming error, never a slow path.
func TestTranslationsPanicOffLattice(t *testing.T) {
	const side = offLatticeSide
	cases := []offLatticeCase{
		{"M2M", geom.Point{X: 0.3 * side}},
		{"M2M", geom.Point{X: side, Y: side / 2, Z: side / 2}},
		{"L2L", geom.Point{X: side / 2, Y: -side / 2, Z: 0.51 * side}},
	}
	for _, tc := range kernels(t) {
		checkOffLatticePanics(t, tc, cases)
	}
}

// TestM2LCacheFallsBackOffLattice checks that an M->L off the interaction
// lattice resolves to no table, builds none, and panics rather than falling
// back to a slow path.
func TestM2LCacheFallsBackOffLattice(t *testing.T) {
	const side = offLatticeSide
	cases := []offLatticeCase{
		{"M2L", geom.Point{X: 0.3071, Y: 0.011, Z: -0.29}},
		{"M2L", geom.Point{X: side, Y: -side}},    // near, not list 2
		{"M2L", geom.Point{X: 4 * side, Z: side}}, // beyond list 2
		{"M2L", geom.Point{X: 2 * side * (1 + 1e-5)}},
	}
	for _, tc := range kernels(t) {
		b := tc.k.(*base)
		for _, c := range cases {
			if tab, _ := b.xlTableFor(m2lKind, c.off, side); tab != nil {
				t.Fatalf("%s %v: off-lattice offset resolved to a table", tc.name, c.off)
			}
		}
		tables := func() (n int) {
			b.tabs.Range(func(any, any) bool { n++; return true })
			return n
		}
		before := tables()
		checkOffLatticePanics(t, tc, cases)
		if after := tables(); after != before {
			t.Errorf("%s: off-lattice M2L built %d tables", tc.name, after-before)
		}
	}
}

// TestM2LCachedEndToEndAccuracy gates the cached path against the direct
// sum: S2M + cached M2L + L2T on a well-separated pair must deliver the
// 3-digit requirement, exactly like the projection path it replaces.
func TestM2LCachedEndToEndAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tc := range kernels(t) {
		const side = 0.125
		from := geom.Point{X: 0.5, Y: 0.5, Z: 0.5}
		to := from.Add(geom.Point{X: 2 * side, Y: side, Z: -side})
		spts := randBox(rng, from, side, 40)
		q := randCharges(rng, 40)
		tpts := randBox(rng, to, side, 30)
		m := make([]complex128, tc.k.MLSize())
		l := make([]complex128, tc.k.MLSize())
		tc.k.S2M(from, spts, q, m)
		tc.k.M2L(from, to, side, m, l)
		pot := make([]float64, len(tpts))
		tc.k.L2T(to, l, tpts, pot)
		want := direct(tc.k, spts, q, tpts)
		if e := relErr(pot, want); e > tc.tol {
			t.Errorf("%s: cached S2M+M2L+L2T rel err %.2e > %.0e", tc.name, e, tc.tol)
		}
	}
}

// listTwoOffsets is every offset of the list-2 lattice, |d|∞ in [2, 3].
func listTwoOffsets(t testing.TB) []M2LOffset {
	var offs []M2LOffset
	for dx := int8(-3); dx <= 3; dx++ {
		for dy := int8(-3); dy <= 3; dy++ {
			for dz := int8(-3); dz <= 3; dz++ {
				if max(abs8(dx), abs8(dy), abs8(dz)) >= 2 {
					offs = append(offs, M2LOffset{DX: dx, DY: dy, DZ: dz})
				}
			}
		}
	}
	if len(offs) != 316 {
		t.Fatalf("list-2 lattice has %d offsets, want 316", len(offs))
	}
	return offs
}

// TestM2LOrderRule pins the per-offset order rule: at p = 9 the 316 offsets
// take orders 5–9 in the counts below, the six face offsets at |o| = 2 keep
// p, and the block tables' multiply-adds, TriSize(p_o)² summed, are the
// stated share of the full order's at three, six and four digits' orders.
func TestM2LOrderRule(t *testing.T) {
	offs := listTwoOffsets(t)
	hist := map[int]int{}
	for _, o := range offs {
		hist[m2lOrder(9, o)]++
	}
	if want := map[int]int{5: 92, 6: 128, 7: 42, 8: 48, 9: 6}; !maps.Equal(hist, want) {
		t.Errorf("orders at p = 9: %v, want %v", hist, want)
	}
	for _, c := range []struct {
		p     int
		share float64
	}{{6, 0.40}, {9, 0.325}, {17, 0.26}} {
		var macs float64
		for _, o := range offs {
			n := float64(sphharm.TriSize(m2lOrder(c.p, o)))
			macs += n * n
		}
		full := float64(sphharm.TriSize(c.p))
		share := macs / (float64(len(offs)) * full * full)
		t.Logf("p = %d: block MACs %.3f of the full order's", c.p, share)
		if math.Abs(share-c.share) > 0.01 {
			t.Errorf("p = %d: block MACs %.3f of the full order's, want %.3f", c.p, share, c.share)
		}
	}
	for _, p := range []int{1, 2, 9, 17, 40} {
		if got := m2lOrder(p, M2LOffset{DX: 2}); got != p {
			t.Errorf("p = %d: face offset (2,0,0) has order %d, want p", p, got)
		}
		if got := m2lOrder(p, M2LOffset{DX: 3, DY: 3, DZ: 3}); got < 1 || got > p {
			t.Errorf("p = %d: corner offset has order %d, outside [1, p]", p, got)
		}
	}
}

// TestM2LTableIsBlockOfFullOrder checks, for both kernels and all 316
// offsets, that the cached M->L table of an offset is the top-left
// TriSize(p_o) block of the order-p table translationTable builds. Both are
// R = P S over the same sphere nodes, and the block's P and S are the full
// ones' first rows and planes to the bit, so an entry is the same sum. On
// the portable binding it is the same bits. A vector binding runs a
// table's last two columns through its GEMV when their count is 2 mod 4
// and the rest through its tile, which may add the nq products in another
// order: such an entry is held to the rounding of that sum,
// 2(nq+1)·2⁻⁵²·Σ_q |p_iq s_cq| (closeTo), as TestDenseTableMatchesPortable
// holds every binding's build.
func TestM2LTableIsBlockOfFullOrder(t *testing.T) {
	const side = 0.125
	for _, tc := range kernels(t) {
		b := tc.k.(*base)
		ml, nq := b.MLSize(), len(b.sph)
		inRF, outRF, a := b.xlParams(m2lKind, side)
		proj := b.projector(outRF, a, b.p)
		var differ int
		for _, o := range listTwoOffsets(t) {
			tab, n := b.m2lTable(o, side)
			po := m2lOrder(b.p, o)
			if want := sphharm.TriSize(po); n != want || len(tab) != 2*n*n {
				t.Fatalf("%s %+v: table of %d elements, size %d; want size %d", tc.name, o, len(tab), n, want)
			}
			samp := b.translationSamples(o.Scale(side), a, inRF, b.p)
			if blk := b.translationSamples(o.Scale(side), a, inRF, po); !slices.Equal(blk, samp[:len(blk)]) {
				t.Fatalf("%s %+v: the block's samples are not the full ones' first planes", tc.name, o)
			}
			blkProj := b.projector(outRF, a, po)
			for i := 0; i < 2*n; i++ {
				for q := 0; q < nq; q++ {
					if blkProj[panelIndex(2*n, nq, i, q)] != proj[panelIndex(2*ml, nq, i, q)] {
						t.Fatalf("%s %+v: the block's projector row %d is not the full one's", tc.name, o, i)
					}
				}
			}
			full, blk := floats(denseTable(ml, ml, proj, samp)), floats(tab)
			for i := 0; i < 2*n; i++ {
				for c := 0; c < 2*n; c++ {
					got, want := blk[panelIndex(2*n, 2*n, i, c)], full[panelIndex(2*ml, 2*ml, i, c)]
					if got == want {
						continue
					}
					var mag float64
					for q := 0; q < nq; q++ {
						mag += math.Abs(proj[panelIndex(2*ml, nq, i, q)] * samp[c*nq+q])
					}
					if bestDense == denseGo || !closeTo(got, want, nq, mag) {
						t.Fatalf("%s %+v on %v: R[%d][%d] = %v, the full table's %v (term magnitudes %.3g)", tc.name, o, bestDense, i, c, got, want, mag)
					}
					differ++
				}
			}
		}
		t.Logf("%s on %v: %d block entries differ from the full table's in the last bits", tc.name, bestDense, differ)
	}
}
