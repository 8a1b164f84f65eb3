package main

import (
	"math"
	"math/rand"
	"testing"

	"microspec/internal/core"
	"microspec/internal/expr"
	"microspec/internal/tpch"
	"microspec/internal/types"
)

func row(k int64, s string, f float64) expr.Row {
	return expr.Row{types.NewInt64(k), types.NewString(s), types.NewFloat64(f)}
}

func TestSameRowsComparesMultisets(t *testing.T) {
	want := canonical([]expr.Row{row(1, "a", 0.5), row(2, "b", 1e6), row(2, "b", 1e6)})
	nudged := math.Nextafter(math.Nextafter(1e6, 2e6), 2e6)
	if err := sameRows([]expr.Row{row(2, "b", nudged), row(1, "a", 0.5), row(2, "b", 1e6)}, want); err != nil {
		t.Errorf("permuted rows, a float two ulps off: %v", err)
	}
	for name, got := range map[string][]expr.Row{
		"missing row":   {row(1, "a", 0.5), row(2, "b", 1e6)},
		"duplicate":     {row(1, "a", 0.5), row(1, "a", 0.5), row(2, "b", 1e6)},
		"changed text":  {row(1, "a", 0.5), row(2, "c", 1e6), row(2, "b", 1e6)},
		"changed float": {row(1, "a", 0.5), row(2, "b", 1e6+0.01), row(2, "b", 1e6)},
		"sign flip":     {row(1, "a", -0.5), row(2, "b", 1e6), row(2, "b", 1e6)},
	} {
		if err := sameRows(got, want); err == nil {
			t.Errorf("%s: want a mismatch", name)
		}
	}
}

// TestCorruptedRowIsReportedAsFailure runs real queries on the bee
// engine against a stock-engine oracle, then corrupts one expected row:
// the clean comparison must pass and the corrupted one must count as a
// failed op.
func TestCorruptedRowIsReportedAsFailure(t *testing.T) {
	const sf = 0.002
	stock, err := tpch.NewDatabase(tpchConfig(core.Stock), sf)
	if err != nil {
		t.Fatal(err)
	}
	bee, err := tpch.NewDatabase(tpchConfig(core.AllRoutines), sf)
	if err != nil {
		t.Fatal(err)
	}
	var qs []tpchQuery
	for _, n := range []int{1, 3, 15} {
		text := tpch.Queries()[n]
		res, err := stock.Query(text)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) == 0 {
			t.Fatalf("Q%d returned no rows at SF %g", n, sf)
		}
		qs = append(qs, tpchQuery{num: n, text: text, want: canonical(res.Rows)})
	}
	rep := &report{}
	c := &tpchClient{db: bee, qs: qs, rng: rand.New(rand.NewSource(1)), rep: rep}
	for _, q := range qs {
		c.query(q)
	}
	if rep.attempted != 3 || rep.failed != 0 {
		t.Fatalf("clean run: %d attempted, %d failed %v", rep.attempted, rep.failed, rep.problems)
	}

	bad := qs[1]
	bad.want = append([]expr.Row(nil), bad.want...)
	r := append(expr.Row(nil), bad.want[0]...)
	r[0] = types.NewInt32(r[0].Int32() + 1)
	bad.want[0] = r
	c.query(bad)
	if rep.failed != 1 || len(rep.problems) != 1 {
		t.Fatalf("corrupted row: %d failed %v, want one failure", rep.failed, rep.problems)
	}
}
