package kernel

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/sphharm"
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

// A table set in the shape the previous layout spilled — (p+1)^2-square
// translation matrices, plane-wave matrices over every alpha-node of an
// unpaired rule — fails the size checks: nothing is adopted, nothing stays
// parked once Prepare has reached the level (12 x 1.5 MB per revived plan
// used to stay referenced for the kernel's lifetime), and the operators are
// rebuilt in the current layout and deliver the accuracy.
func TestImportOfPreviousLayoutIsDroppedAndRebuilt(t *testing.T) {
	p := OrderForDigits(3)
	k := NewLaplace(p).(*base)
	sqOld := sphharm.SqSize(p)
	totalOld := 0
	uh, _, _ := laplaceNodes(k.pwParams)
	for _, u := range uh {
		totalOld += int(math.Ceil(k.pwParams.alphaC*u*pwRhoMax)) + k.pwParams.alphaB
	}
	side := func(level int) uint64 { return math.Float64bits(1.0 / float64(int(1)<<level)) }
	ops := []OperatorTable{
		{Kind: m2mKind, SideBits: side(3), DX: 1, DY: 1, DZ: 1, Mx: make([]complex128, sqOld*sqOld)},
		{Kind: m2lKind, SideBits: side(2), DX: 2, Mx: make([]complex128, sqOld*sqOld)},
	}
	for _, level := range []int{2, 4} {
		for dir := int8(0); dir < int8(geom.NumDirections); dir++ {
			ops = append(ops,
				OperatorTable{Kind: pwM2IKind, SideBits: side(level), DX: dir, DY: int8(level), Mx: make([]complex128, totalOld*sqOld)},
				OperatorTable{Kind: pwI2LKind, SideBits: side(level), DX: dir, DY: int8(level), Mx: make([]complex128, sqOld*totalOld)})
		}
	}
	k.ImportOperators(ops)
	k.Prepare(1.0, 3)
	if n := len(k.pwPending); n != 2*int(geom.NumDirections) {
		t.Errorf("after Prepare to level 3, %d tables parked; want only level 4's %d", n, 2*int(geom.NumDirections))
	}
	k.Prepare(1.0, 4)
	if n := len(k.pwPending); n != 0 {
		t.Errorf("after Prepare to level 4, %d tables still parked", n)
	}
	k.xl.Range(func(key, _ any) bool {
		t.Errorf("previous-layout translation matrix adopted: %+v", key)
		return true
	})
	m2i, i2l := k.pw.Load().matrices(geom.Up, 2)
	if want := 2 * k.ISize(2) * k.MLSize(); len(m2i) != want || len(i2l) != want {
		t.Errorf("level-2 tables hold %d and %d elements, want %d each", len(m2i), len(i2l), want)
	}
	if e := runPW(t, k, 2, 0.25, 1, -1, 2, 31); e > 1e-3 {
		t.Errorf("rebuilt plane-wave operators: rel err %.2e > 1e-3", e)
	}
}
