package kernel

import (
	"math"
	"sort"

	"repro/internal/geom"
)

// Operator-table export/import for the persistent plan store (see
// internal/serve/store.go). Two families of lazily built dense operators
// make a kernel warm:
//
//   - the translation matrices in base.xl — the eight M->M and L->L
//     parent/child octant operators and the per-(side, lattice-offset)
//     list-2 M->L operators — each one sampled-and-projected table build;
//   - the plane-wave M->I and I->L projection matrices, built once per
//     (level, direction) by the exponential list-2 pipeline the DAG uses
//     by default (see planewave.go).
//
// A warm server spills both so a restarted process replays them instead of
// rebuilding.

// OperatorTable is one cached dense operator table (dense.go) in
// serializable form.
// Kinds 0-2 (M->M, L->L, M->L) mirror the internal xlKey: SideBits is the
// math.Float64bits of the box side the operator was built for (so the key
// survives a round trip through disk bit-exactly) and DX/DY/DZ are the
// octant or lattice offset. Kinds 3-4 are the plane-wave M->I and I->L
// matrices: DX carries the direction, DY the tree level.
type OperatorTable struct {
	Kind       uint8
	SideBits   uint64
	DX, DY, DZ int8
	Mx         []complex128
}

// Plane-wave table kinds, above the xlKey kinds (0 M->M, 1 L->L, 2 M->L).
const (
	pwM2IKind = 3
	pwI2LKind = 4
)

// OperatorCache is implemented by the built-in kernels: it exposes the
// dense-operator cache for persistence. Callers type-assert.
type OperatorCache interface {
	// ExportOperators snapshots every cached dense operator, in a
	// deterministic order (so spilled records are byte-stable).
	ExportOperators() []OperatorTable
	// ImportOperators seeds the cache with previously exported operators.
	// Tables whose matrix size does not match the kernel's MLSize are
	// ignored (a record from a different accuracy must not corrupt the
	// cache). Not safe to call concurrently with operator use.
	ImportOperators([]OperatorTable)
}

// ExportOperators implements OperatorCache.
func (b *base) ExportOperators() []OperatorTable {
	var out []OperatorTable
	b.xl.Range(func(k, v any) bool {
		key := k.(xlKey)
		out = append(out, OperatorTable{
			Kind:     key.kind,
			SideBits: key.sideBits,
			DX:       key.ox,
			DY:       key.oy,
			DZ:       key.oz,
			Mx:       v.([]complex128),
		})
		return true
	})
	if pw := b.pw.Load(); pw != nil {
		for l, lv := range pw.levels {
			for dir := geom.Direction(0); dir < geom.NumDirections; dir++ {
				if lv.m2i[dir] == nil {
					continue
				}
				sideBits := math.Float64bits(lv.side)
				out = append(out,
					OperatorTable{Kind: pwM2IKind, SideBits: sideBits, DX: int8(dir), DY: int8(l), Mx: lv.m2i[dir]},
					OperatorTable{Kind: pwI2LKind, SideBits: sideBits, DX: int8(dir), DY: int8(l), Mx: lv.i2l[dir]})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, c := out[i], out[j]
		if a.Kind != c.Kind {
			return a.Kind < c.Kind
		}
		if a.SideBits != c.SideBits {
			return a.SideBits < c.SideBits
		}
		if a.DX != c.DX {
			return a.DX < c.DX
		}
		if a.DY != c.DY {
			return a.DY < c.DY
		}
		return a.DZ < c.DZ
	})
	return out
}

// ImportOperators implements OperatorCache. Plane-wave tables (whose sizes
// depend on the per-level quadrature rule) are parked in pwPending until
// Prepare reaches their level and, after a size check, adopts or drops them.
func (b *base) ImportOperators(ts []OperatorTable) {
	ml := b.MLSize()
	for _, t := range ts {
		switch t.Kind {
		case pwM2IKind, pwI2LKind:
			if b.pwPending == nil {
				b.pwPending = make(map[xlKey][]complex128)
			}
			b.pwPending[xlKey{kind: t.Kind, sideBits: t.SideBits, ox: t.DX}] = t.Mx
		default:
			if len(t.Mx) != 2*ml*ml {
				continue
			}
			key := xlKey{kind: t.Kind, sideBits: t.SideBits, ox: t.DX, oy: t.DY, oz: t.DZ}
			b.xl.Store(key, t.Mx)
		}
	}
}
