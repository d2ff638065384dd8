package kernel

import (
	"math"
	"sync"
	"testing"

	"repro/internal/geom"
)

var allDirs = []geom.Direction{geom.Up, geom.Down, geom.North, geom.South, geom.East, geom.West}

func filledSlots(t *shiftTable) int {
	n := 0
	for i := range t.slots {
		if t.slots[i].Load() != nil {
			n++
		}
	}
	return n
}

// TestShiftOffLatticeBypassesTable checks that an off-lattice I->I shift
// (and one on the lattice but beyond the reach) fills no slot and panics
// rather than computing its factors for the call.
func TestShiftOffLatticeBypassesTable(t *testing.T) {
	const side = offLatticeSide
	cases := []offLatticeCase{
		{"I2I", geom.Point{X: 0.1, Y: -0.05, Z: 0.2}},
		{"I2I", geom.Point{X: side, Y: side / 2 * (1 + 1e-5), Z: side}},
		{"I2I", geom.Point{Z: 4.5 * side}}, // on the lattice, beyond its reach
	}
	for _, tc := range kernels(t) {
		lv := tc.k.(*base).pw.Load().levels[3]
		filled := filledSlots(lv.shift)
		checkOffLatticePanics(t, tc, cases)
		if filledSlots(lv.shift) != filled {
			t.Errorf("%s: off-lattice shift filled a slot", tc.name)
		}
	}
}

// The table key has no direction in it: a shift that looks the same in each
// direction's rotated frame resolves to one slot pointer for all six, and
// what the operator multiplies by equals the formula at that shift.
func TestShiftSlotSharedAcrossDirections(t *testing.T) {
	const level = 3
	side := 1.0 / 8
	rotated := []geom.Point{ // half-box units, in the direction's frame
		{X: 1, Y: -1, Z: 1}, {X: -1, Y: 1, Z: -1}, // merge / distribution
		{X: 2, Y: -4, Z: 6}, {X: 0, Y: 0, Z: 4}, {X: -6, Y: 6, Z: 4}, // transfers
		{X: 3, Y: -5, Z: 5}, {X: -7, Y: 1, Z: 3}, // from/into parent-centred waves: odd half-units
		{X: 8, Y: -8, Z: 8}, // the edge of the reach
	}
	for _, tc := range kernels(t) {
		n := tc.k.ISize(level)
		for _, w := range rotated {
			var first *[]complex128
			for _, d := range allDirs {
				shift := d.RotateFromUp(w.Scale(side / 2))
				got := make([]complex128, n)
				tc.k.I2I(d, level, shift, Ones(n), got)
				slot := ShiftSlot(tc.k, d, level, shift)
				if slot == nil {
					t.Fatalf("%s %v %v: lattice shift left no slot", tc.name, d, w)
				}
				if first == nil {
					first = slot
				} else if slot != first {
					t.Errorf("%s %v %v: direction resolved to its own slot", tc.name, d, w)
				}
				want := RefShiftFactors(tc.k, d, level, shift)
				for i := range want {
					if cAbs(got[i]-want[i]) > 1e-13*math.Max(1, cAbs(want[i])) {
						t.Fatalf("%s %v %v: term %d table %v formula %v", tc.name, d, w, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// Laplace's box-unit rule is side-free: every level of every kernel of one
// order shares the process-wide table of that order's rule, and another
// order has a table of its own. Yukawa's is not: one table per level.
func TestShiftTableSharing(t *testing.T) {
	p := OrderForDigits(3)
	l1, l1b, l2 := NewLaplace(p).(*base), NewLaplace(p).(*base), NewLaplace(p+2).(*base)
	l1.Prepare(1.0, 4)
	l1b.Prepare(3.7, 2)
	l2.Prepare(3.7, 2)
	for _, b := range []*base{l1, l1b, l2} {
		for l, lv := range b.pw.Load().levels {
			if lv.shift != laplaceShiftFor(b.p) {
				t.Errorf("laplace p=%d level %d does not use its order's process-wide table", b.p, l)
			}
		}
	}
	if laplaceShiftFor(p) == laplaceShiftFor(p+2) {
		t.Error("two orders' rules share one shift table")
	}
	y := NewYukawa(p, 4.0).(*base)
	y.Prepare(1.0, 3)
	seen := map[*shiftTable]bool{laplaceShiftFor(p): true}
	for l, lv := range y.pw.Load().levels {
		if seen[lv.shift] {
			t.Errorf("yukawa level %d shares a shift table", l)
		}
		seen[lv.shift] = true
	}
}

// Sixteen goroutines hitting one cold slot end with one published slice and
// bit-identical products (`make race` runs this package instrumented).
func TestShiftSlotColdRace(t *testing.T) {
	const level, workers = 2, 16
	slot, ok := shiftSlotOf(geom.Point{X: 1, Y: -2, Z: 3})
	if !ok {
		t.Fatal("lattice vector has no slot")
	}
	for _, tc := range kernels(t) {
		rule := tc.k.(*base).pw.Load().levels[level].rule
		tab := &shiftTable{} // cold by construction
		in := make([]complex128, rule.total)
		for i := range in {
			in[i] = complex(1/float64(i+1), float64(i%7)-3)
		}
		outs := make([][]complex128, workers)
		fs := make([][]complex128, workers)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := range outs {
			outs[g] = make([]complex128, rule.total)
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				fs[g] = tab.factors(slot, rule)
				mulAcc(fs[g], in, outs[g])
			}(g)
		}
		close(start)
		wg.Wait()
		if n := filledSlots(tab); n != 1 {
			t.Fatalf("%s: %d slots filled, want 1", tc.name, n)
		}
		for g := 0; g < workers; g++ {
			if &fs[g][0] != &(*tab.slots[slot].Load())[0] {
				t.Fatalf("%s: goroutine %d holds a slice that was not published", tc.name, g)
			}
			for i := range outs[0] {
				if outs[g][i] != outs[0][i] {
					t.Fatalf("%s: goroutine %d term %d = %v, goroutine 0 = %v", tc.name, g, i, outs[g][i], outs[0][i])
				}
			}
		}
	}
}

// A slot is filled from the canonical lattice vector of its index, so the
// first edge to touch it — exact, or a few ulps off as real centre
// differences are — leaves the same bits.
func TestShiftFillIsCanonical(t *testing.T) {
	const level = 3
	side := 1.0 / 8
	p := OrderForDigits(3)
	exact := geom.Point{X: side, Y: -1.5 * side, Z: 2.5 * side}
	nudged := geom.Point{X: side * (1 + 1e-12), Y: -1.5 * side * (1 - 1e-12), Z: 2.5*side + 1e-13}
	var got [2][]complex128
	for i, first := range []geom.Point{exact, nudged} {
		k := NewYukawa(p, 4.0)
		k.Prepare(1.0, 5)
		n := k.ISize(level)
		k.I2I(geom.East, level, first, Ones(n), make([]complex128, n))
		got[i] = make([]complex128, n)
		k.I2I(geom.East, level, exact, Ones(n), got[i])
	}
	for i := range got[0] {
		if got[0][i] != got[1][i] {
			t.Fatalf("term %d depends on the first-seen shift: %v vs %v", i, got[0][i], got[1][i])
		}
	}
}

func TestI2INoAlloc(t *testing.T) {
	const level = 2
	shift := geom.Point{X: 0.25, Y: -0.25, Z: 0.5}
	for _, tc := range kernels(t) {
		n := tc.k.ISize(level)
		in, out := Ones(n), make([]complex128, n)
		tc.k.I2I(geom.Down, level, shift, in, out) // warm the slot
		if a := testing.AllocsPerRun(100, func() { tc.k.I2I(geom.Down, level, shift, in, out) }); a != 0 {
			t.Errorf("%s: I2I on a warm slot allocates %.0f times per call", tc.name, a)
		}
	}
}

func TestShiftTableStats(t *testing.T) {
	lap := kernels(t)[0].k
	n := lap.ISize(1)
	lap.I2I(geom.Up, 1, geom.Point{Z: 1.0}, Ones(n), make([]complex128, n))
	s := ShiftTableStats()
	slots, bytes := 0, int64(0)
	for p := range laplaceShifts {
		if tab := laplaceShifts[p].Load(); tab != nil {
			slots += filledSlots(tab)
			bytes += int64(filledSlots(tab)) * int64(makeRule(laplaceNodes(p), 1).total) * 16
		}
	}
	if s.Slots < 1 || s.Slots != slots {
		t.Errorf("Slots = %d, tables hold %d", s.Slots, slots)
	}
	if s.Bytes != bytes {
		t.Errorf("Bytes = %d, want %d: filled slots x terms x 16", s.Bytes, bytes)
	}
}

// Prepare for the identical root side keeps what is built and only appends
// levels; a different side rebinds the kernel.
func TestPrepareIdempotentPerRootSide(t *testing.T) {
	for _, tc := range kernels(t) { // prepared for side 1.0, levels 0..5
		b := tc.k.(*base)
		m2i := b.pw.Load().table(pwM2IKind, geom.Up, 2)
		lv2 := b.pw.Load().levels[2]

		tc.k.Prepare(1.0, 3) // shallower: nothing to do
		if got := len(b.pw.Load().levels); got != 6 {
			t.Errorf("%s: shallower Prepare left %d levels, want 6", tc.name, got)
		}
		tc.k.Prepare(1.0, 7) // deeper: levels 6, 7 appended
		pw := b.pw.Load()
		if len(pw.levels) != 8 || pw.levels[2] != lv2 {
			t.Errorf("%s: deeper Prepare rebuilt existing levels (%d levels)", tc.name, len(pw.levels))
		}
		if again := pw.table(pwM2IKind, geom.Up, 2); &again[0] != &m2i[0] {
			t.Errorf("%s: Prepare for the same side discarded a built M->I table", tc.name)
		}
		if b.RootSide() != 1.0 {
			t.Errorf("%s: RootSide = %g, want 1", tc.name, b.RootSide())
		}
		tc.k.Prepare(3.0, 2)
		if pw := b.pw.Load(); pw.rootSide != 3.0 || len(pw.levels) != 3 || pw.levels[2] == lv2 {
			t.Errorf("%s: Prepare for a new side did not rebind (side %g, %d levels)", tc.name, pw.rootSide, len(pw.levels))
		}
	}
}

func TestShiftSlotOfRejectsOffLattice(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, v := range []geom.Point{
		{X: nan}, {Y: nan}, {Z: nan}, {X: inf}, {Z: -inf},
		{X: 4.5}, {Y: -4.5}, {Z: 5}, {X: 0.25}, {Y: 1.5 + 1e-5}, {Z: -1 - 1e-5},
	} {
		if slot, ok := shiftSlotOf(v); ok {
			t.Errorf("%v resolved to slot %d", v, slot)
		}
	}
	seen := map[int]bool{}
	for x := -shiftReach; x <= shiftReach; x++ {
		for y := -shiftReach; y <= shiftReach; y++ {
			for z := -shiftReach; z <= shiftReach; z++ {
				v := geom.Point{X: float64(x) / 2, Y: float64(y)/2 + 1e-9, Z: float64(z)/2 - 1e-9}
				slot, ok := shiftSlotOf(v)
				if !ok || seen[slot] || slot < 0 || slot >= len(shiftTable{}.slots) {
					t.Fatalf("%v: slot %d ok=%v (duplicate %v)", v, slot, ok, seen[slot])
				}
				seen[slot] = true
				if c := slotVector(slot); c != (geom.Point{X: float64(x) / 2, Y: float64(y) / 2, Z: float64(z) / 2}) {
					t.Fatalf("%v: canonical vector %v", v, c)
				}
			}
		}
	}
}
