package kernel

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/geom"
)

// The exported operator set, implemented on the shared engine: the point
// operators borrow a scratch workspace from the kernel's free list per call
// so concurrent callers do not contend or allocate in steady state, and the
// translations replay the cached table of their lattice vector.

// Prepare implements Kernel.
func (b *base) Prepare(rootSide float64, maxLevel int) error {
	return b.preparePW(rootSide, maxLevel)
}

// Direct implements Kernel.
func (b *base) Direct(t, s geom.Point) float64 {
	r := t.Dist(s)
	if r == 0 {
		return 0
	}
	return b.directF(r)
}

// S2M implements Kernel, on the point block of the process's binding
// (point.go).
func (b *base) S2M(c geom.Point, spts []geom.Point, q []float64, out []complex128) {
	b.pointProject(bestDense, regular, c, spts, q, out)
}

// S2L implements Kernel.
func (b *base) S2L(c geom.Point, spts []geom.Point, q []float64, out []complex128) {
	b.pointProject(bestDense, outer, c, spts, q, out)
}

// M2T implements Kernel.
func (b *base) M2T(c geom.Point, m []complex128, tpts []geom.Point, pot []float64) {
	b.pointEval(bestDense, outer, c, m, tpts, pot)
}

// L2T implements Kernel.
func (b *base) L2T(c geom.Point, l []complex128, tpts []geom.Point, pot []float64) {
	b.pointEval(bestDense, regular, c, l, tpts, pot)
}

// M2M implements Kernel. The projection sphere radius scales with the
// parent box so aliasing stays level-independent. The eight parent/child
// offsets recur for every box of a level, so the translation table is built
// once per (level, octant) and replayed (exactly the same linear operator,
// precomputed). A centre difference that is not one of the eight panics.
func (b *base) M2M(from, to geom.Point, childSide float64, in, out []complex128) {
	b.xlate(m2mKind, from, to, childSide, in, out)
}

// M2L implements Kernel. The list-2 interaction offsets of same-level
// boxes recur for every box of a level (the classic 189-offset interaction
// list, up to 316 distinct lattice offsets with |d|∞ in [2,3]), so the
// M->L table is built once per (kernel, box side, lattice offset) and
// replayed as a single apply. A plan's centres are root-relative (package
// tree), so every M->L it makes is on that lattice; a centre difference off
// it panics.
func (b *base) M2L(from, to geom.Point, side float64, in, out []complex128) {
	b.xlate(m2lKind, from, to, side, in, out)
}

// L2L implements Kernel. Like M2M, the eight offsets are table-cached, and
// any other centre difference panics.
func (b *base) L2L(from, to geom.Point, childSide float64, in, out []complex128) {
	b.xlate(l2lKind, from, to, childSide, in, out)
}

// The three translations: they differ in their radial families, in the
// projection radius and in the lattice their centre differences live on
// (the child's octant for M->M and L->L, the list-2 offset for M->L).
const (
	m2mKind = iota
	l2lKind
	m2lKind
)

var xlNames = [...]string{m2mKind: "M2M", l2lKind: "L2L", m2lKind: "M2L"}

// xlParams returns the input and output radial families and the projection
// radius of a translation between boxes of the given side (the child's, for
// the parent/child kinds).
func (b *base) xlParams(kind uint8, side float64) (inRF, outRF radialFunc, a float64) {
	switch kind {
	case m2mKind:
		return b.radOut, b.radOut, b.aM2M * 2 * side
	case l2lKind:
		return b.radReg, b.radReg, b.aL2L * side
	}
	return b.radOut, b.radReg, b.aM2L * side
}

// xlate applies one translation through the cached table of its centre
// difference. A difference off the kind's lattice is a programming error:
// no root-relative plan makes one.
func (b *base) xlate(kind uint8, from, to geom.Point, side float64, in, out []complex128) {
	off := to.Sub(from)
	tab := b.xlTableFor(kind, off, side)
	if tab == nil {
		offLattice(xlNames[kind], off, side)
	}
	applyTable(tab, [][]complex128{in}, [][]complex128{out})
}

// offLattice panics for an operator handed a centre difference off its
// lattice. It stays out of line so the operators' hot paths keep their
// no-allocation guarantee.
//
//go:noinline
func offLattice(op string, off geom.Point, side float64) {
	panic(fmt.Sprintf("kernel: %s offset %v is off the lattice of boxes of side %g", op, off, side))
}

// xlKey identifies one cached dense table: operator kind, box side (exact
// halvings of the root side, so float bits are a stable key) and, for the
// translations, the octant sign pattern or lattice offset; for the
// plane-wave kinds (planewave.go) ox is the direction and oy the tree level.
// It is the key OperatorTable spells out field by field (export.go).
type xlKey struct {
	kind       uint8
	sideBits   uint64
	ox, oy, oz int8
}

// tableEntry is one slot of the kernel's dense-table cache (base.tabs).
// ImportOperators fills mx and leaves the rest to the first lookup, which
// keeps a table of the size the key's rule calls for and builds over any
// other: a record from other accuracy settings or from a build with another
// table layout must neither corrupt the cache nor stay referenced. ok is set
// once mx is that validated table, and is all a hit and ExportOperators
// read; once makes racing first lookups build one table, not one each. rule
// is the fingerprint of the plane-wave rule a M->I or I->L table was built
// from (pwRule.fingerprint; 0 for the translations).
type tableEntry struct {
	once sync.Once
	ok   atomic.Bool
	mx   []complex128
	rule uint64
}

// entry returns the cache slot of key, creating it empty.
func (b *base) entry(key xlKey) *tableEntry {
	if v, ok := b.tabs.Load(key); ok {
		return v.(*tableEntry)
	}
	v, _ := b.tabs.LoadOrStore(key, new(tableEntry))
	return v.(*tableEntry)
}

// xlTableFor resolves a centre difference to its cached table, or nil when
// it is not on the kind's lattice.
func (b *base) xlTableFor(kind uint8, off geom.Point, side float64) []complex128 {
	if kind == m2lKind {
		o, ok := b.M2LOffsetOf(geom.Point{}, off, side)
		if !ok {
			return nil
		}
		return b.m2lTable(o, side)
	}
	h := side / 2
	ox, okx := signOf(off.X, h)
	oy, oky := signOf(off.Y, h)
	oz, okz := signOf(off.Z, h)
	if !okx || !oky || !okz {
		return nil
	}
	o := M2LOffset{DX: ox, DY: oy, DZ: oz}
	return b.xlTable(kind, side, o, o.Scale(h))
}

// xlTable returns the cached table of (kind, side, lattice vector o),
// building it on first use from the canonical centre difference `to`. The
// operator depends only on that vector (never on the absolute centers),
// which is what makes one table serve every edge of a batch.
func (b *base) xlTable(kind uint8, side float64, o M2LOffset, to geom.Point) []complex128 {
	e := b.entry(xlKey{kind: kind, sideBits: math.Float64bits(side), ox: o.DX, oy: o.DY, oz: o.DZ})
	if !e.ok.Load() {
		e.once.Do(func() {
			if ml := b.MLSize(); len(e.mx) != 2*ml*ml {
				inRF, outRF, a := b.xlParams(kind, side)
				e.mx = b.translationTable(to, a, inRF, outRF)
			}
			e.ok.Store(true)
		})
	}
	return e.mx
}

// m2lTable returns the cached M->L table of one lattice offset. Keyed by
// exact box side bits plus the integer offset, so the scale-variant Yukawa
// kernel gets per-level operators for free.
func (b *base) m2lTable(off M2LOffset, side float64) []complex128 {
	return b.xlTable(m2lKind, side, off, off.Scale(side))
}

// M2LOffsetOf implements BatchKernel: it classifies the translation from ->
// to against the list-2 interaction lattice of boxes with the given side. An
// offset is on it when every component is an integer multiple of the side
// and the Chebyshev norm lies in [2, 3] — nearer pairs are not
// well-separated (the projection sphere would not enclose the targets) and
// farther ones are off the bounded list-2 key space.
func (b *base) M2LOffsetOf(from, to geom.Point, side float64) (M2LOffset, bool) {
	off := to.Sub(from)
	dx, okx := latticeCoord(off.X, side)
	dy, oky := latticeCoord(off.Y, side)
	dz, okz := latticeCoord(off.Z, side)
	if !okx || !oky || !okz {
		return M2LOffset{}, false
	}
	max := abs8(dx)
	if v := abs8(dy); v > max {
		max = v
	}
	if v := abs8(dz); v > max {
		max = v
	}
	if max < 2 || max > 3 {
		return M2LOffset{}, false
	}
	return M2LOffset{DX: dx, DY: dy, DZ: dz}, true
}

// latticeCoord reports whether v is (to rounding) an integer multiple of
// the box side within the interaction range, and which multiple.
func latticeCoord(v, side float64) (int8, bool) {
	d := v / side
	r := math.Round(d)
	if math.Abs(d-r) > 1e-9*math.Max(1, math.Abs(d)) || math.Abs(r) > 3 {
		return 0, false
	}
	return int8(r), true
}

func abs8(v int8) int8 {
	if v < 0 {
		return -v
	}
	return v
}

// signOf reports whether v is (to rounding) +h or -h and with which sign.
// The tolerance is relative to h, so a box far below unit side keeps the
// sign of its offset.
func signOf(v, h float64) (int8, bool) {
	const tol = 1e-9
	switch {
	case math.Abs(v-h) <= tol*h:
		return 1, true
	case math.Abs(v+h) <= tol*h:
		return -1, true
	}
	return 0, false
}

// OrderForDigits returns the truncation order p that delivers roughly the
// requested number of accurate digits for the standard list-2 separation
// ratio sqrt(3)/2 : 2 of the adaptive FMM.
func OrderForDigits(digits int) int {
	ratio := math.Sqrt(3) / 2 / 2 // worst-case r_src / r_eval for list 2
	p := int(math.Ceil(float64(digits) * math.Ln10 / -math.Log(ratio)))
	if p < 2 {
		p = 2
	}
	return p
}
