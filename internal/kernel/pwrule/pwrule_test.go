package pwrule

import (
	"math"
	"testing"
)

// The selection stops as soon as its least-squares fit is within the
// tolerance in every row: b in the span of six near-dependent columns is
// fit to it, and b a multiple of the largest column (the first pivot) by
// that column alone.
func TestSelectColumnsFitsWithinTheTolerance(t *testing.T) {
	const m, tol = 40, 1e-10
	cols := make([][]float64, 6)
	for j := range cols {
		cols[j] = make([]float64, m)
		for i := range cols[j] {
			cols[j][i] = math.Exp(-float64(j+1) * float64(i) / (m - 1))
		}
	}
	combo, multiple := make([]float64, m), make([]float64, m)
	for i := range combo {
		combo[i] = 3*cols[1][i] - 0.5*cols[4][i]
		multiple[i] = 2 * cols[0][i]
	}
	for _, b := range [][]float64{combo, multiple} {
		sel, x, err := selectColumns(cols, b, tol)
		if err != nil {
			t.Fatal(err)
		}
		for i := range b {
			r := b[i]
			for k, c := range sel {
				r -= x[k] * cols[c][i]
			}
			if math.Abs(r) > tol {
				t.Fatalf("row %d: residual %.3g with columns %v", i, r, sel)
			}
		}
	}
	if sel, x, _ := selectColumns(cols, multiple, tol); len(sel) != 1 || sel[0] != 0 || math.Abs(x[0]-2) > 1e-12 {
		t.Errorf("2 × column 0 fit by columns %v, coefficients %v", sel, x)
	}
}

// A tolerance no subset reaches is an error, not a rule.
func TestSelectColumnsRefusesAnUnreachableFit(t *testing.T) {
	cols := [][]float64{{1, 0, 0}, {0, 1, 0}}
	if _, _, err := selectColumns(cols, []float64{1, 1, 1}, 1e-3); err == nil {
		t.Error("fit b outside the columns' span without an error")
	}
}

func TestGenerateRefusesOrdersOutsideItsRange(t *testing.T) {
	for _, p := range []int{MinOrder - 1, MaxOrder + 1} {
		if _, err := Generate(p); err == nil {
			t.Errorf("order %d: no error", p)
		}
	}
}
