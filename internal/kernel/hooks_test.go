package kernel

import (
	"math"

	"repro/internal/geom"
)

// Test hooks for the external kernel_test package (which drives whole plans
// through core and so cannot live in package kernel).

// RefShiftFactors evaluates the I->I factors of (dir, level, shift) straight
// from the defining formula in world units — one Exp per u-node, one Sincos
// per term, the per-call computation the shift table replaced — so the
// table is checked against something that shares no code with it.
func RefShiftFactors(k Kernel, dir geom.Direction, level int, shift geom.Point) []complex128 {
	r := k.(*base).pw.Load().levels[level].rule
	v := dir.RotateToUp(shift)
	f := make([]complex128, r.total)
	for kk := range r.u {
		e := math.Exp(-r.mu[kk] * v.Z)
		for j := range r.cosA[kk] { // the kept half of the alpha-nodes
			sin, cos := math.Sincos(r.u[kk] * (v.X*r.cosA[kk][j] + v.Y*r.sinA[kk][j]))
			f[r.off[kk]+j] = complex(e*cos, e*sin)
		}
	}
	return f
}

// ShiftSlot returns the published slot (dir, level, shift) resolves to, or
// nil when the shift is off the lattice or the slot is still cold. It never
// fills.
func ShiftSlot(k Kernel, dir geom.Direction, level int, shift geom.Point) *[]complex128 {
	lv := k.(*base).pw.Load().levels[level]
	slot, ok := shiftSlotOf(dir.RotateToUp(shift).Scale(1 / lv.side))
	if !ok {
		return nil
	}
	return lv.shift.slots[slot].Load()
}

// Ones returns a wave of all (1+0i): I2I of it into a zeroed buffer leaves
// exactly the factors the operator multiplied by.
func Ones(n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = 1
	}
	return x
}
