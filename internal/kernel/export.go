package kernel

import "sort"

// Operator-table export/import for the persistent plan store (see
// internal/serve/store.go). Two families of lazily built dense operators
// make a kernel warm, and both live in the one cache base.tabs:
//
//   - the translation matrices — the eight M->M and L->L parent/child
//     octant operators and the per-(side, lattice-offset) list-2 M->L
//     operators — each one sampled-and-projected table build;
//   - the plane-wave M->I and I->L projection matrices, built as a pair per
//     (level, direction) by the exponential list-2 pipeline the DAG uses by
//     default (see planewave.go).
//
// A warm server spills both so a restarted process replays them instead of
// rebuilding.

// OperatorTable is one cached dense operator table (dense.go) in
// serializable form: the cache's xlKey, field by field, and the table.
// SideBits is the math.Float64bits of the box side the operator was built
// for (so the key survives a round trip through disk bit-exactly). For kinds
// 0-2 (M->M, L->L, M->L) DX/DY/DZ are the octant or lattice offset; for
// kinds 3-4, the plane-wave M->I and I->L matrices, DX carries the direction
// and DY the tree level. Rule stamps the table layout (tableLayout), xored
// for the plane-wave kinds into the fingerprint of the rule the table was
// built from: an import of another layout's or another rule's table is
// rebuilt, whatever its size.
type OperatorTable struct {
	Kind       uint8
	SideBits   uint64
	DX, DY, DZ int8
	Rule       uint64
	Mx         []complex128
}

// Plane-wave table kinds, above the translation kinds (0 M->M, 1 L->L,
// 2 M->L).
const (
	pwM2IKind = 3
	pwI2LKind = 4
)

// OperatorCache is the persistence part of Kernel: it exposes the
// dense-operator cache.
type OperatorCache interface {
	// ExportOperators snapshots every cached dense operator, in a
	// deterministic order (so spilled records are byte-stable).
	ExportOperators() []OperatorTable
	// ImportOperators seeds the cache with previously exported operators.
	// A table is validated when an operator first asks for it: one whose
	// size does not match what the kernel's order and the level's quadrature
	// rule call for, or whose Rule is not the stamp of this table layout
	// (with, for the plane-wave kinds, the level's rule's fingerprint), is
	// rebuilt in place (a record from a different accuracy, another layout
	// or another build's rule must not corrupt the cache). Not safe to call
	// concurrently with operator use.
	ImportOperators([]OperatorTable)
}

// ExportOperators implements OperatorCache: every table an operator has
// built or validated. An imported table nothing has asked for yet is not
// vouched for and stays out.
func (b *base) ExportOperators() []OperatorTable {
	var out []OperatorTable
	b.tabs.Range(func(k, v any) bool {
		if key, e := k.(xlKey), v.(*tableEntry); e.ok.Load() {
			out = append(out, OperatorTable{
				Kind:     key.kind,
				SideBits: key.sideBits,
				DX:       key.ox,
				DY:       key.oy,
				DZ:       key.oz,
				Rule:     e.rule,
				Mx:       e.mx,
			})
		}
		return true
	})
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

// ImportOperators implements OperatorCache.
func (b *base) ImportOperators(ts []OperatorTable) {
	for _, t := range ts {
		key := xlKey{kind: t.Kind, sideBits: t.SideBits, ox: t.DX, oy: t.DY, oz: t.DZ}
		b.tabs.Store(key, &tableEntry{mx: t.Mx, rule: t.Rule})
	}
}
