package kernel

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/geom"
	"repro/internal/sphharm"
)

// lookup asks the kernel for the table an exported record names, the way the
// operator that uses it does.
func lookup(b *base, op OperatorTable) []complex128 {
	side, o := math.Float64frombits(op.SideBits), M2LOffset{DX: op.DX, DY: op.DY, DZ: op.DZ}
	switch op.Kind {
	case m2mKind, l2lKind:
		return b.xlTable(op.Kind, side, o, o.Scale(side/2))
	case m2lKind:
		return b.m2lTable(o, side)
	}
	return b.pw.Load().table(op.Kind, geom.Direction(op.DX), int(op.DY))
}

// Exported operators re-imported into a fresh kernel are adopted verbatim:
// the first lookup of each — translation or plane-wave, one cache — returns
// the imported slice itself (same backing array), nothing is rebuilt, and
// the kernel then exports what it imported. Nothing is vouched for before an
// operator has asked for it.
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
	k1.pw.Load().table(pwM2IKind, geom.Direction(0), 2)
	k1.pw.Load().table(pwI2LKind, geom.Direction(3), 1)

	ops := k1.ExportOperators()
	if len(ops) != 3+4 {
		t.Fatalf("exported %d tables, want 7 (3 dense + 2 pw pairs)", len(ops))
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
	if early := k2.ExportOperators(); len(early) != 0 {
		t.Errorf("%d imported tables exported before any operator validated them", len(early))
	}
	for _, op := range ops {
		if got := lookup(k2, op); &got[0] != &op.Mx[0] {
			t.Errorf("table %d side %g (%d,%d,%d) rebuilt instead of adopted from the import",
				op.Kind, math.Float64frombits(op.SideBits), op.DX, op.DY, op.DZ)
		}
	}
	again := k2.ExportOperators()
	if len(again) != len(ops) {
		t.Fatalf("re-exported %d tables of %d imported", len(again), len(ops))
	}
	for i, op := range again {
		if &op.Mx[0] != &ops[i].Mx[0] {
			t.Errorf("re-exported table %d is not the imported one", i)
		}
	}

	// A wrong-accuracy import is rebuilt on first use, never adopted.
	k3 := NewLaplace(9).(*base)
	k3.ImportOperators(ops)
	k3.Prepare(1.0, 3)
	for _, op := range ops {
		want := 2 * k3.MLSize() * k3.MLSize()
		if op.Kind >= pwM2IKind {
			want = 2 * k3.ISize(int(op.DY)) * k3.MLSize()
		}
		if got := lookup(k3, op); len(got) != want || &got[0] == &op.Mx[0] {
			t.Errorf("wrong-accuracy table %d adopted (%d elements, want %d)", op.Kind, len(got), want)
		}
	}
}

// A table set in the shape the previous layout spilled — (p+1)^2-square
// translation matrices, plane-wave matrices over every alpha-node of an
// unpaired rule — fails the size checks of the first lookups, even with the
// plane-wave tables vouched for by the level's own rule fingerprint (orders
// clamped to one generated rule share it): nothing is adopted, no entry that has been asked for still references an old table
// (12 x 1.5 MB per revived plan used to stay referenced for the kernel's
// lifetime), and the operators are rebuilt in the current layout and deliver
// the accuracy.
func TestImportOfPreviousLayoutIsDroppedAndRebuilt(t *testing.T) {
	p := OrderForDigits(3)
	k := NewLaplace(p).(*base)
	sqOld := sphharm.SqSize(p)
	totalOld := 2 * makeRule(laplaceNodes(p), 1).total
	side := func(level int) uint64 { return math.Float64bits(1.0 / float64(int(1)<<level)) }
	rule := func(level int) uint64 {
		return makeRule(laplaceNodes(p), math.Float64frombits(side(level))).fingerprint
	}
	ops := []OperatorTable{
		{Kind: m2mKind, SideBits: side(3), DX: 1, DY: 1, DZ: 1, Mx: make([]complex128, sqOld*sqOld)},
		{Kind: m2lKind, SideBits: side(2), DX: 2, Mx: make([]complex128, sqOld*sqOld)},
	}
	for _, level := range []int{2, 4} {
		for dir := int8(0); dir < int8(geom.NumDirections); dir++ {
			ops = append(ops,
				OperatorTable{Kind: pwM2IKind, SideBits: side(level), DX: dir, DY: int8(level), Rule: rule(level), Mx: make([]complex128, totalOld*sqOld)},
				OperatorTable{Kind: pwI2LKind, SideBits: side(level), DX: dir, DY: int8(level), Rule: rule(level), Mx: make([]complex128, sqOld*totalOld)})
		}
	}
	k.ImportOperators(ops)
	k.Prepare(1.0, 4)
	for _, op := range ops {
		want := 2 * k.MLSize() * k.MLSize()
		if op.Kind >= pwM2IKind {
			want = 2 * k.ISize(int(op.DY)) * k.MLSize()
		}
		if got := lookup(k, op); len(got) != want {
			t.Errorf("table %d level %d holds %d elements after its first lookup, want %d", op.Kind, op.DY, len(got), want)
		}
	}
	k.tabs.Range(func(key, v any) bool {
		for _, op := range ops {
			if e := v.(*tableEntry); !e.ok.Load() || &e.mx[0] == &op.Mx[0] {
				t.Errorf("previous-layout table still cached: %+v", key)
			}
		}
		return true
	})
	if got := len(k.ExportOperators()); got != len(ops) {
		t.Errorf("%d tables exported after the rebuild, want the %d that were asked for", got, len(ops))
	}
	if e := runPW(t, k, 2, 0.25, 1, -1, 2, 31); e > 1e-3 {
		t.Errorf("rebuilt plane-wave operators: rel err %.2e > 1e-3", e)
	}
}

// A plane-wave pair is adopted only under the rule it was built from: an
// import of the right size whose fingerprint is another rule's (another
// order's here, or none, as a record from before the fingerprint carries) is
// rebuilt, and the rebuilt pair exports the level's own fingerprint.
func TestImportOfAnotherRuleIsRebuilt(t *testing.T) {
	p := OrderForDigits(3)
	src := NewLaplace(p).(*base)
	src.Prepare(1.0, 2)
	src.pw.Load().table(pwM2IKind, geom.Up, 2)
	good := src.ExportOperators()
	own := src.pw.Load().levels[2].rule.fingerprint
	other := makeRule(laplaceNodes(p+1), 0.25).fingerprint
	if len(good) != 2 || good[0].Rule != own || good[1].Rule != own || own == other {
		t.Fatalf("exported %d tables, fingerprints %x/%x; level rule %x, another order's %x", len(good), good[0].Rule, good[1].Rule, own, other)
	}
	for _, rule := range []uint64{own, other, 0} {
		k := NewLaplace(p).(*base)
		ops := append([]OperatorTable(nil), good...)
		for i := range ops {
			ops[i].Rule = rule
		}
		k.ImportOperators(ops)
		k.Prepare(1.0, 2)
		adopted := &lookup(k, ops[0])[0] == &ops[0].Mx[0]
		if adopted != (rule == own) {
			t.Errorf("fingerprint %x against the level's %x: adopted %v", rule, own, adopted)
		}
		for _, op := range k.ExportOperators() {
			if op.Rule != own {
				t.Errorf("fingerprint %x: table of kind %d exports fingerprint %x, want the level's %x", rule, op.Kind, op.Rule, own)
			}
		}
	}
}

// Prepare for a different root side drops every table of the old binding —
// translations and plane-wave pairs alike (only the plane-wave levels used to
// be replaced; the M->M, L->L and M->L tables of the old sides stayed cached
// and exported for the life of the value).
func TestRebindDropsTheOldSidesTables(t *testing.T) {
	k := NewLaplace(4).(*base)
	k.Prepare(1.0, 3)
	in, out := make([]complex128, k.MLSize()), make([]complex128, k.MLSize())
	k.M2M(geom.Point{X: 0.125, Y: 0.125, Z: 0.125}, geom.Point{X: 0.25, Y: 0.25, Z: 0.25}, 0.25, in, out)
	k.M2L(geom.Point{X: 0.125, Y: 0.125, Z: 0.125}, geom.Point{X: 0.625, Y: 0.125, Z: 0.125}, 0.25, in, out)
	k.pw.Load().table(pwM2IKind, geom.Up, 2)
	if n := len(k.ExportOperators()); n != 4 {
		t.Fatalf("%d tables cached before the rebind, want 4", n)
	}
	k.Prepare(3.0, 2)
	if old := k.ExportOperators(); len(old) != 0 {
		t.Errorf("%d tables of the old root side survive the rebind, first %+v", len(old), old[0].Kind)
	}
	k.M2M(geom.Point{X: 0.375, Y: 0.375, Z: 0.375}, geom.Point{X: 0.75, Y: 0.75, Z: 0.75}, 0.75, in, out)
	if n := len(k.ExportOperators()); n != 1 {
		t.Errorf("%d tables cached after one translation on the new binding, want 1", n)
	}
}

// Racing first lookups of one table — two workers reaching the same operator
// at the start of a cold evaluation — get the same table, the plane-wave
// pair included, whichever half each asked for.
func TestRacingLookupsShareOneTable(t *testing.T) {
	k := NewYukawa(4, 2.0).(*base)
	k.Prepare(1.0, 2)
	const racers = 4
	var xl, m2i, i2l [racers][]complex128
	var wg sync.WaitGroup
	for r := 0; r < racers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			xl[r] = k.m2lTable(M2LOffset{DX: 2}, 0.25)
			if r%2 == 0 {
				m2i[r], i2l[r] = k.pw.Load().table(pwM2IKind, geom.Up, 2), k.pw.Load().table(pwI2LKind, geom.Up, 2)
			} else {
				i2l[r], m2i[r] = k.pw.Load().table(pwI2LKind, geom.Up, 2), k.pw.Load().table(pwM2IKind, geom.Up, 2)
			}
		}(r)
	}
	wg.Wait()
	want := 2 * k.ISize(2) * k.MLSize()
	for r := 1; r < racers; r++ {
		if &xl[r][0] != &xl[0][0] || &m2i[r][0] != &m2i[0][0] || &i2l[r][0] != &i2l[0][0] {
			t.Fatalf("racer %d got tables of its own", r)
		}
	}
	if len(m2i[0]) != want || len(i2l[0]) != want || &m2i[0][0] == &i2l[0][0] {
		t.Errorf("plane-wave pair holds %d and %d elements, want %d each", len(m2i[0]), len(i2l[0]), want)
	}
}

// The sphere quadrature is a function of the order alone: sixteen kernels of
// one order borrow one rule (each used to build its own 0.34 MB — 5.4 MB
// here, 2.7 MB of a 5.1 MB heap in a daemon with eight cached plans), and two
// of them may project through it at the same time.
func TestSphereQuadratureSharedPerOrder(t *testing.T) {
	p := OrderForDigits(3)
	first := NewLaplace(p).(*base)
	heap := func() int64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	before := heap()
	ks := make([]*base, 16)
	for i := range ks {
		if i%2 == 0 {
			ks[i] = NewLaplace(p).(*base)
		} else {
			ks[i] = NewYukawa(p, 1+float64(i)).(*base)
		}
	}
	grew := heap() - before
	t.Logf("16 kernels of order %d hold %.3f MB", p, float64(grew)/(1<<20))
	if grew > 512<<10 {
		t.Errorf("16 kernels of order %d hold %.2f MB, want under 0.5", p, float64(grew)/(1<<20))
	}
	for _, k := range ks {
		if &k.sph[0] != &first.sph[0] || k.coef != first.coef {
			t.Fatal("a kernel built a sphere quadrature of its own")
		}
	}
	if other := NewLaplace(p + 1).(*base); len(other.sph) == len(first.sph) {
		t.Error("a different order borrowed this order's rule")
	}

	// Every kernel builds its M->L tables by projecting through the rule's
	// nodes: concurrent builds on the shared rule land on the same bits.
	rng := rand.New(rand.NewSource(8))
	m := randomML(rng, first)
	from := geom.Point{X: 0.5, Y: 0.5, Z: 0.5}
	to := from.Add(geom.Point{X: 0.25, Y: 0.125, Z: -0.25})
	want := make([]complex128, first.MLSize())
	first.M2L(from, to, 0.125, m, want)
	var wg sync.WaitGroup
	for _, k := range ks[:4:4] {
		wg.Add(1)
		go func(k *base) {
			defer wg.Done()
			if k.name != first.name {
				k.m2lTable(M2LOffset{DZ: -3}, 0.25) // a table build reads the rule too
				return
			}
			got := make([]complex128, k.MLSize())
			k.M2L(from, to, 0.125, m, got)
			if e := maxCoefDiff(got, want); e != 0 {
				t.Errorf("concurrent table build through the shared rule differs by %.2e", e)
			}
		}(k)
	}
	wg.Wait()
}
