// The I->I shift table.
//
// The diagonal translation factor of plane-wave term t = (k, j),
//
//	E_t(v) = e^{-mu_k zeta + i u_k (xi cos a_j + eta sin a_j)},
//
// depends on the shift v only through (xi, eta, zeta), its coordinates in the
// direction's rotated frame, and on the level only through u_k*side and
// mu_k*side — the box-unit nodes the rule was generated from. Every shift
// the merge-and-shift DAG applies joins two box centres of the same or of
// adjacent levels, i.e. it is an integer vector in half-box units of the
// level whose rule translates it. So the factors are tabulated once per
// (box-unit rule, half-unit vector):
//
//   - the key has no direction in it: the six rotations are symmetries of
//     the lattice, so the Up table serves all six directions;
//   - for Laplace the box-unit rule is the same at every side, so one
//     process-wide table per generated rule (laplaceShiftFor) serves every
//     level, kernel and cached plan of that order; Yukawa's rule depends on
//     kappa*side, so each pwLevel owns a table that dies with the plan's
//     kernel;
//   - a slot is always filled from the canonical lattice vector decoded from
//     its index, never from the centre difference of whichever edge touched
//     it first, so sequential, parallel and per-rank runs build bit-identical
//     tables in any order;
//   - slots are published with one compare-and-swap; a hit is one atomic
//     load. Racing fillers compute identical bits and all but one discard.
//
// The table is bounded by the lattice, (2*shiftReach+1)^3 slots, of which a
// DAG touches ~100 (4.3 KB each at 3 digits). It is deliberately not part of
// ExportOperators: refilling every slot a plan uses costs ~2 ms, spilling
// them would grow each store record by ~8 %.
package kernel

import (
	"math"
	"sync/atomic"

	"repro/internal/geom"
)

const (
	// shiftReach bounds each half-unit component. The widest shift the DAG
	// produces is a list-2 transfer at offset 3 boxes, 6 half-units
	// (transfers from or into a parent-centred wave reach 5); 8 leaves the
	// margin of one more box without the slot array mattering (39 KB of
	// pointers per table).
	shiftReach = 8
	shiftSpan  = 2*shiftReach + 1
	// shiftTol is how far (in half-units) a component may sit from an
	// integer and still be a lattice shift; box centres are dyadic
	// subdivisions of a root cube centred at the origin (package tree), so
	// real edges land within ~1e-12 at the deepest level.
	shiftTol = 1e-6
)

// shiftTable holds the filled slots of one box-unit rule. The zero value is
// an empty table.
type shiftTable struct {
	slots [shiftSpan * shiftSpan * shiftSpan]atomic.Pointer[[]complex128]
}

// laplaceShifts[p] is the process-wide table of the generated Laplace rule
// of order p, made on first use.
var laplaceShifts [len(laplaceRules)]atomic.Pointer[shiftTable]

// laplaceShiftFor returns the table of the rule a Laplace kernel of order p
// uses (laplaceRuleOrder).
func laplaceShiftFor(p int) *shiftTable {
	slot := &laplaceShifts[laplaceRuleOrder(p)]
	if t := slot.Load(); t != nil {
		return t
	}
	slot.CompareAndSwap(nil, new(shiftTable))
	return slot.Load()
}

// shiftSlotOf resolves a rotated-frame shift in box units to its slot. It
// fails for a shift off the half-box lattice or beyond shiftReach.
//
//dashmm:noalloc
func shiftSlotOf(v geom.Point) (int, bool) {
	x, okx := halfUnit(v.X)
	y, oky := halfUnit(v.Y)
	z, okz := halfUnit(v.Z)
	return (x*shiftSpan+y)*shiftSpan + z, okx && oky && okz
}

// halfUnit maps one box-unit component to its slot coordinate in
// [0, shiftSpan). The comparisons are written so a NaN component fails them.
func halfUnit(c float64) (int, bool) {
	h := 2 * c
	r := math.Round(h)
	return int(r) + shiftReach, math.Abs(h-r) <= shiftTol && math.Abs(r) <= shiftReach
}

// slotVector is the canonical box-unit vector of a slot.
func slotVector(slot int) geom.Point {
	z := slot % shiftSpan
	y := slot / shiftSpan % shiftSpan
	x := slot / (shiftSpan * shiftSpan)
	return geom.Point{
		X: float64(x-shiftReach) / 2,
		Y: float64(y-shiftReach) / 2,
		Z: float64(z-shiftReach) / 2,
	}
}

// factors returns the slot's factors under rule r, filling it on first use.
//
//dashmm:noalloc
func (t *shiftTable) factors(slot int, r *pwRule) []complex128 {
	if f := t.slots[slot].Load(); f != nil {
		return *f
	}
	return t.fill(slot, r)
}

// fill computes a cold slot and publishes it; when several goroutines race,
// every caller returns the one published slice.
func (t *shiftTable) fill(slot int, r *pwRule) []complex128 {
	f := make([]complex128, r.total)
	r.shiftFactors(slotVector(slot), f)
	if !t.slots[slot].CompareAndSwap(nil, &f) {
		return *t.slots[slot].Load()
	}
	return f
}

// shiftFactors writes E_t(v) for every kept term of the rule into dst (the
// factor of a dropped term is the conjugate, like its coefficient, so the
// kept half translates by itself); v is the shift in box units in the
// direction's rotated frame. It is the only place the factors are computed.
func (r *pwRule) shiftFactors(v geom.Point, dst []complex128) {
	for k := range r.uh {
		e := math.Exp(-r.muh[k] * v.Z)
		cosA, sinA := r.cosA[k], r.sinA[k]
		row := dst[r.off[k] : r.off[k]+len(cosA)]
		for j := range row {
			sin, cos := math.Sincos(r.uh[k] * (v.X*cosA[j] + v.Y*sinA[j]))
			row[j] = complex(e*cos, e*sin)
		}
	}
}

// mulAcc accumulates out[t] += in[t] * f[t].
//
//dashmm:noalloc
func mulAcc(f, in, out []complex128) {
	in, out = in[:len(f)], out[:len(f)]
	for t, ft := range f {
		out[t] += in[t] * ft
	}
}

// ShiftStats describes the process-wide I->I shift tables.
type ShiftStats struct {
	// Slots and Bytes are the filled slots of the shared (Laplace) tables,
	// one per order in use, and the memory they hold. Per-level Yukawa
	// tables belong to their kernel and are reclaimed with it; they are not
	// counted here.
	Slots int
	Bytes int64
}

// ShiftTableStats snapshots the shift-table counters.
func ShiftTableStats() ShiftStats {
	var s ShiftStats
	for i := range laplaceShifts {
		t := laplaceShifts[i].Load()
		if t == nil {
			continue
		}
		for j := range t.slots {
			if f := t.slots[j].Load(); f != nil {
				s.Slots++
				s.Bytes += int64(len(*f)) * 16
			}
		}
	}
	return s
}
