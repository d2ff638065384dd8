package kernel

import (
	"math"

	"repro/internal/geom"
)

// The exported operator set, implemented on the shared engine. Each method
// borrows a scratch workspace from the kernel's free list so concurrent
// callers do not contend or allocate in steady state.

// Prepare implements Kernel.
func (b *base) Prepare(rootSide float64, maxLevel int) {
	b.preparePW(rootSide, maxLevel)
}

// Direct implements Kernel.
func (b *base) Direct(t, s geom.Point) float64 {
	r := t.Dist(s)
	if r == 0 {
		return 0
	}
	return b.directF(r)
}

// S2M implements Kernel.
func (b *base) S2M(c geom.Point, spts []geom.Point, q []float64, out []complex128) {
	ws := b.wsp.get(b)
	b.s2m(ws, c, spts, q, out)
	b.wsp.put(ws)
}

// S2L implements Kernel.
func (b *base) S2L(c geom.Point, spts []geom.Point, q []float64, out []complex128) {
	ws := b.wsp.get(b)
	b.s2l(ws, c, spts, q, out)
	b.wsp.put(ws)
}

// M2T implements Kernel.
func (b *base) M2T(c geom.Point, m []complex128, tpts []geom.Point, pot []float64) {
	ws := b.wsp.get(b)
	b.m2t(ws, c, m, tpts, pot)
	b.wsp.put(ws)
}

// L2T implements Kernel.
func (b *base) L2T(c geom.Point, l []complex128, tpts []geom.Point, pot []float64) {
	ws := b.wsp.get(b)
	b.l2t(ws, c, l, tpts, pot)
	b.wsp.put(ws)
}

// M2M implements Kernel. The projection sphere radius scales with the
// parent box so aliasing stays level-independent. The eight parent/child
// offsets recur for every box of a level, so the dense translation matrix
// is built once per (level, octant) and replayed (exactly the same linear
// operator, precomputed).
func (b *base) M2M(from, to geom.Point, childSide float64, in, out []complex128) {
	if mx := b.xlMatrix(0, to.Sub(from), childSide, b.radOut, b.radOut, b.aM2M*2*childSide); mx != nil {
		applyMatrix(mx, in, out)
		return
	}
	ws := b.wsp.get(b)
	b.translate(ws, from, to, b.aM2M*2*childSide, in, b.radOut, b.radOut, out)
	b.wsp.put(ws)
}

// M2L implements Kernel. The list-2 interaction offsets of same-level
// boxes recur for every box of a level (the classic 189-offset interaction
// list, up to 316 distinct lattice offsets with |d|∞ in [2,3]), so the
// dense M->L operator is built once per (kernel, box side, lattice offset)
// and replayed as a single matrix–vector multiply. Geometry off that
// lattice (or with the cache disabled) falls back to spectral projection.
func (b *base) M2L(from, to geom.Point, side float64, in, out []complex128) {
	if mx := b.m2lMatrix(from, to, side); mx != nil {
		applyMatrix(mx, in, out)
		return
	}
	ws := b.wsp.get(b)
	b.translate(ws, from, to, b.aM2L*side, in, b.radOut, b.radReg, out)
	b.wsp.put(ws)
}

// L2L implements Kernel. Like M2M, the eight offsets are matrix-cached.
func (b *base) L2L(from, to geom.Point, childSide float64, in, out []complex128) {
	if mx := b.xlMatrix(1, to.Sub(from), childSide, b.radReg, b.radReg, b.aL2L*childSide); mx != nil {
		applyMatrix(mx, in, out)
		return
	}
	ws := b.wsp.get(b)
	b.translate(ws, from, to, b.aL2L*childSide, in, b.radReg, b.radReg, out)
	b.wsp.put(ws)
}

// xlKey identifies one cached translation matrix: operator kind, box side
// (exact halvings of the root side, so float bits are a stable key) and the
// octant sign pattern of the offset.
type xlKey struct {
	kind       uint8
	sideBits   uint64
	ox, oy, oz int8
}

// xlMatrix returns the cached dense matrix for a parent/child translation,
// building it on first use, or nil when the offset is not one of the eight
// half-side octant offsets (callers then fall back to direct projection).
func (b *base) xlMatrix(kind uint8, off geom.Point, childSide float64, inRF, outRF radialFunc, a float64) []complex128 {
	h := childSide / 2
	ox, okx := signOf(off.X, h)
	oy, oky := signOf(off.Y, h)
	oz, okz := signOf(off.Z, h)
	if !okx || !oky || !okz {
		return nil
	}
	key := xlKey{kind: kind, sideBits: math.Float64bits(childSide), ox: ox, oy: oy, oz: oz}
	if v, ok := b.xl.Load(key); ok {
		return v.([]complex128)
	}
	sq := b.MLSize()
	mx := make([]complex128, sq*sq)
	ws := b.newWorkspace()
	e := make([]complex128, sq)
	col := make([]complex128, sq)
	to := geom.Point{X: float64(ox) * h, Y: float64(oy) * h, Z: float64(oz) * h}
	for j := 0; j < sq; j++ {
		e[j] = 1
		for i := range col {
			col[i] = 0
		}
		b.translate(ws, geom.Point{}, to, a, e, inRF, outRF, col)
		for i := range col {
			mx[i*sq+j] = col[i]
		}
		e[j] = 0
	}
	actual, _ := b.xl.LoadOrStore(key, mx)
	return actual.([]complex128)
}

// m2lCacheKinds start above the M2M/L2L kinds in the shared xl cache.
const m2lKind = 2

// SetM2LCache enables or disables the cached-operator M->L path (enabled
// by default). The accuracy tests toggle it to compare the cached matrices
// against pure spectral projection; it is not safe to flip concurrently
// with operator calls.
func (b *base) SetM2LCache(on bool) { b.m2lCacheOff = !on }

// m2lMatrix returns the cached dense M->L matrix for a same-level list-2
// translation, building it on first use, or nil when the offset is not on
// the well-separated interaction lattice (callers then fall back to
// projection). Keyed by exact box side bits plus the integer offset, so
// the scale-variant Yukawa kernel gets per-level operators for free.
func (b *base) m2lMatrix(from, to geom.Point, side float64) []complex128 {
	if b.m2lCacheOff {
		return nil
	}
	off, ok := b.M2LOffsetOf(from, to, side)
	if !ok {
		return nil
	}
	return b.m2lMatrixOff(off, side)
}

// M2LOffsetOf implements BatchKernel: it classifies the translation from ->
// to against the list-2 interaction lattice of boxes with the given side. An
// offset is cacheable when every component is an integer multiple of the
// side and the Chebyshev norm lies in [2, 3] — nearer pairs are not
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

// m2lMatrixOff returns the cached dense M->L operator for one lattice
// offset, building it on first use, or nil with the cache disabled. The
// operator depends only on the offset vector (never on the absolute
// centers), which is what makes one matrix serve every edge of a batch.
func (b *base) m2lMatrixOff(off M2LOffset, side float64) []complex128 {
	if b.m2lCacheOff {
		return nil
	}
	key := xlKey{kind: m2lKind, sideBits: math.Float64bits(side), ox: off.DX, oy: off.DY, oz: off.DZ}
	if v, ok := b.xl.Load(key); ok {
		return v.([]complex128)
	}
	sq := b.MLSize()
	mx := make([]complex128, sq*sq)
	ws := b.newWorkspace()
	e := make([]complex128, sq)
	col := make([]complex128, sq)
	toP := off.Scale(side)
	for j := 0; j < sq; j++ {
		e[j] = 1
		for i := range col {
			col[i] = 0
		}
		b.translate(ws, geom.Point{}, toP, b.aM2L*side, e, b.radOut, b.radReg, col)
		for i := range col {
			mx[i*sq+j] = col[i]
		}
		e[j] = 0
	}
	actual, _ := b.xl.LoadOrStore(key, mx)
	return actual.([]complex128)
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
func signOf(v, h float64) (int8, bool) {
	const tol = 1e-9
	switch {
	case math.Abs(v-h) <= tol*math.Max(1, h):
		return 1, true
	case math.Abs(v+h) <= tol*math.Max(1, h):
		return -1, true
	}
	return 0, false
}

// applyMatrix accumulates out += mx * in for a dense sq x sq matrix.
func applyMatrix(mx, in, out []complex128) {
	sq := len(in)
	for i := range out {
		row := mx[i*sq : (i+1)*sq]
		var acc complex128
		for j, v := range in {
			acc += row[j] * v
		}
		out[i] += acc
	}
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
