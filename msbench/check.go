package main

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"microspec/internal/expr"
	"microspec/internal/types"
)

// maxULPs is how far apart two doubles may be, in units in the last
// place, and still count as the same result value. Bee and stock plans
// may add a column's values in different orders (Q15's revenue view is
// the case that needs it), which moves the last few bits of a sum.
const maxULPs = 1 << 12

// canonical returns the rows sorted into a plan-independent order, so
// that two results compare as multisets. Rows are ordered by their
// non-float columns first and only then by coarsely rounded floats,
// which keeps the order stable when two plans' sums differ in the last
// bits.
func canonical(rows []expr.Row) []expr.Row {
	type keyed struct {
		exact, coarse string
		row           expr.Row
	}
	ks := make([]keyed, len(rows))
	for i, r := range rows {
		var exact, coarse strings.Builder
		for _, d := range r {
			if d.Kind() == types.KindFloat64 {
				fmt.Fprintf(&coarse, "%.6e|", d.Float64())
				continue
			}
			exact.WriteString(d.String())
			exact.WriteByte('|')
		}
		ks[i] = keyed{exact.String(), coarse.String(), r}
	}
	sort.SliceStable(ks, func(i, j int) bool {
		if ks[i].exact != ks[j].exact {
			return ks[i].exact < ks[j].exact
		}
		return ks[i].coarse < ks[j].coarse
	})
	out := make([]expr.Row, len(ks))
	for i, k := range ks {
		out[i] = k.row
	}
	return out
}

// sameRows reports how got differs from want as multisets of rows, where
// want is already canonical; nil means they match.
func sameRows(got, want []expr.Row) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	got = canonical(got)
	for i := range got {
		if len(got[i]) != len(want[i]) {
			return fmt.Errorf("row %d has %d columns, want %d", i, len(got[i]), len(want[i]))
		}
		for c := range got[i] {
			if !sameDatum(got[i][c], want[i][c]) {
				return fmt.Errorf("row %d column %d is %v, want %v", i, c, got[i][c], want[i][c])
			}
		}
	}
	return nil
}

// sameDatum compares two result values: doubles within maxULPs, anything
// else exactly.
func sameDatum(a, b types.Datum) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	if a.Kind() == types.KindFloat64 {
		return ulpDistance(a.Float64(), b.Float64()) <= maxULPs
	}
	return a.Equal(b)
}

// ulpDistance counts the representable doubles between a and b; values
// of opposite sign (other than two zeros) are infinitely far apart.
func ulpDistance(a, b float64) uint64 {
	if a == b {
		return 0
	}
	if math.IsNaN(a) || math.IsNaN(b) || math.Signbit(a) != math.Signbit(b) {
		return math.MaxUint64
	}
	x, y := math.Float64bits(math.Abs(a)), math.Float64bits(math.Abs(b))
	if x > y {
		return x - y
	}
	return y - x
}
