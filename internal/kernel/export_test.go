package kernel

import (
	"testing"

	"repro/internal/geom"
)

// Exported operators re-imported into a fresh kernel are adopted verbatim:
// the dense xl matrices land in the cache, and the plane-wave tables are
// installed by Prepare without rebuilding (the adopted slices share backing
// arrays with the import).
func TestOperatorExportImportRoundTrip(t *testing.T) {
	k1 := NewLaplace(6).(*base)
	k1.Prepare(1.0, 3)

	// Warm a few operators of every family.
	sq := k1.MLSize()
	in := make([]complex128, sq)
	out := make([]complex128, sq)
	k1.M2M(geom.Point{X: 0.125, Y: 0.125, Z: 0.125}, geom.Point{X: 0.25, Y: 0.25, Z: 0.25}, 0.25, in, out)
	k1.L2L(geom.Point{X: 0.25, Y: 0.25, Z: 0.25}, geom.Point{X: 0.125, Y: 0.125, Z: 0.125}, 0.25, in, out)
	k1.M2L(geom.Point{X: 0.125, Y: 0.125, Z: 0.125}, geom.Point{X: 0.625, Y: 0.125, Z: 0.125}, 0.25, in, out)
	k1.pw.Load().matrices(geom.Direction(0), 2)
	k1.pw.Load().matrices(geom.Direction(3), 1)

	ops := k1.ExportOperators()
	if len(ops) < 3+4 {
		t.Fatalf("exported %d tables, want >= 7 (3 dense + 2 pw pairs)", len(ops))
	}
	for i := 1; i < len(ops); i++ {
		a, b := ops[i-1], ops[i]
		if a.Kind > b.Kind || (a.Kind == b.Kind && a.SideBits > b.SideBits) {
			t.Fatalf("export order not deterministic at %d: %+v after %+v", i, b, a)
		}
	}

	k2 := NewLaplace(6).(*base)
	k2.ImportOperators(ops)
	k2.Prepare(1.0, 3)

	// Dense cache adopted.
	xlCount := 0
	k2.xl.Range(func(_, _ any) bool { xlCount++; return true })
	if xlCount != 3 {
		t.Errorf("imported xl cache holds %d matrices, want 3", xlCount)
	}
	// Plane-wave tables adopted without a rebuild: same backing arrays.
	m2i1, i2l1 := k1.pw.Load().matrices(geom.Direction(0), 2)
	m2i2, i2l2 := k2.pw.Load().matrices(geom.Direction(0), 2)
	if &m2i2[0] != &m2i1[0] || &i2l2[0] != &i2l1[0] {
		t.Error("plane-wave tables rebuilt instead of adopted from the import")
	}

	// A wrong-accuracy import is ignored, never adopted.
	k3 := NewLaplace(9).(*base)
	k3.ImportOperators(ops)
	k3.Prepare(1.0, 3)
	xlCount = 0
	k3.xl.Range(func(_, _ any) bool { xlCount++; return true })
	if xlCount != 0 {
		t.Errorf("wrong-accuracy import adopted %d dense matrices", xlCount)
	}
	m2i3, _ := k3.pw.Load().matrices(geom.Direction(0), 2)
	if &m2i3[0] == &m2i1[0] {
		t.Error("wrong-accuracy plane-wave table adopted")
	}
}
