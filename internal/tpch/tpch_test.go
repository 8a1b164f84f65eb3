package tpch

import (
	"fmt"
	"testing"

	"microspec/internal/core"
	"microspec/internal/engine"
	"microspec/internal/expr"
	"microspec/internal/types"
)

const testSF = 0.003

func loadPair(t *testing.T) (stock, bee *engine.DB) {
	t.Helper()
	var err error
	stock, err = NewDatabase(engine.Config{Routines: core.Stock}, testSF)
	if err != nil {
		t.Fatal(err)
	}
	bee, err = NewDatabase(engine.Config{Routines: core.AllRoutines}, testSF)
	if err != nil {
		t.Fatal(err)
	}
	return stock, bee
}

func TestGeneratorCardinalities(t *testing.T) {
	g := NewGenerator(0.001)
	counts := map[string]int{}
	for name, iter := range map[string]RowIter{
		"region":   g.RegionRows(0),
		"nation":   g.NationRows(0),
		"supplier": g.SupplierRows(),
		"part":     g.PartRows(),
		"partsupp": g.PartSuppRows(),
		"customer": g.CustomerRows(),
		"orders":   g.OrderRows(),
		"lineitem": g.LineitemRows(),
	} {
		n := 0
		for {
			if _, ok := iter(); !ok {
				break
			}
			n++
		}
		counts[name] = n
	}
	if counts["region"] != 5 || counts["nation"] != 25 {
		t.Errorf("fixed relations: %v", counts)
	}
	if counts["supplier"] != 10 || counts["part"] != 200 || counts["customer"] != 150 {
		t.Errorf("scaled relations: %v", counts)
	}
	if counts["partsupp"] != 4*counts["part"] {
		t.Errorf("partsupp = %d, want 4·part", counts["partsupp"])
	}
	if counts["orders"] != 1500 {
		t.Errorf("orders = %d", counts["orders"])
	}
	if counts["lineitem"] < counts["orders"] || counts["lineitem"] > 7*counts["orders"] {
		t.Errorf("lineitem = %d for %d orders", counts["lineitem"], counts["orders"])
	}
}

func TestGeneratorDeterministicAndConsistent(t *testing.T) {
	g := NewGenerator(0.001)
	// Orders and lineitems must agree on keys and status.
	lines := map[int32][]string{} // orderkey → linestatus values
	li := g.LineitemRows()
	for {
		row, ok := li()
		if !ok {
			break
		}
		lines[row[0].Int32()] = append(lines[row[0].Int32()], row[9].Str())
	}
	oi := g.OrderRows()
	checked := 0
	for {
		row, ok := oi()
		if !ok {
			break
		}
		key := row[0].Int32()
		ls := lines[key]
		if len(ls) == 0 {
			t.Fatalf("order %d has no lineitems", key)
		}
		status := row[2].Str()
		allF, allO := true, true
		for _, s := range ls {
			if s != "F" {
				allF = false
			}
			if s != "O" {
				allO = false
			}
		}
		switch {
		case allF && status != "F":
			t.Fatalf("order %d: all F but status %s", key, status)
		case allO && status != "O":
			t.Fatalf("order %d: all O but status %s", key, status)
		case !allF && !allO && status != "P":
			t.Fatalf("order %d: mixed but status %s", key, status)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no orders checked")
	}
}

func TestLoadAndRowCounts(t *testing.T) {
	db, err := NewDatabase(engine.Config{Routines: core.AllRoutines}, testSF)
	if err != nil {
		t.Fatal(err)
	}
	g := NewGenerator(testSF)
	r, err := db.Query("select count(*) from orders")
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Rows[0][0].Int64(); got != int64(g.NumOrders()) {
		t.Errorf("orders = %d, want %d", got, g.NumOrders())
	}
	// Tuple bees exist for the annotated relations.
	if db.Module().Stats().TupleBees == 0 {
		t.Error("no tuple bees created during load")
	}
	// Referential sanity: every lineitem's order exists.
	r, err = db.Query(`select count(*) from lineitem
		where l_orderkey not in (select o_orderkey from orders)`)
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows[0][0].Int64() != 0 {
		t.Error("dangling lineitem orderkeys")
	}
}

func TestTupleBeeStorageSmallerThanStock(t *testing.T) {
	stock, bee := loadPair(t)
	sp, bp := stock.TotalPages(), bee.TotalPages()
	if bp >= sp {
		t.Errorf("bee-enabled storage (%d pages) must be smaller than stock (%d pages)", bp, sp)
	}
}

// TestAll22QueriesAgree runs every TPC-H query on the stock and the
// bee-enabled database, serially and with 4 workers, and requires
// identical results, row order included — the end-to-end correctness
// statement for every micro-specialization at once.
func TestAll22QueriesAgree(t *testing.T) {
	stock, bee := loadPair(t)
	for _, workers := range []int{1, 4} {
		stock.SetWorkers(workers)
		bee.SetWorkers(workers)
		for _, qn := range QueryNumbers() {
			q := Queries()[qn]
			rs, err := stock.Query(q)
			if err != nil {
				t.Fatalf("q%d workers=%d stock: %v", qn, workers, err)
			}
			rb, err := bee.Query(q)
			if err != nil {
				t.Fatalf("q%d workers=%d bee: %v", qn, workers, err)
			}
			assertAgree(t, fmt.Sprintf("q%d workers=%d", qn, workers), rs.Rows, rb.Rows)
		}
	}
}

// assertAgree requires two results to match row for row; floats may
// differ by a relative 1e-9.
func assertAgree(t *testing.T, label string, stock, bee []expr.Row) {
	t.Helper()
	if len(stock) != len(bee) {
		t.Errorf("%s: stock %d rows, bee %d rows", label, len(stock), len(bee))
		return
	}
	for i := range stock {
		for j := range stock[i] {
			a, b := stock[i][j], bee[i][j]
			if a.IsNull() != b.IsNull() {
				t.Errorf("%s row %d col %d: null mismatch %v vs %v", label, i, j, a, b)
				continue
			}
			if a.IsNull() {
				continue
			}
			if a.Kind() == types.KindFloat64 {
				af, bf := a.Float64(), b.Float64()
				diff := af - bf
				if diff < 0 {
					diff = -diff
				}
				scale := 1.0
				if af > 1 || af < -1 {
					scale = af
					if scale < 0 {
						scale = -scale
					}
				}
				if diff/scale > 1e-9 {
					t.Errorf("%s row %d col %d: %v vs %v", label, i, j, af, bf)
				}
			} else if a.Compare(b) != 0 {
				t.Errorf("%s row %d col %d: %v vs %v", label, i, j, a, b)
			}
		}
	}
}

// TestQ1Sanity verifies q1's aggregate structure on a tiny dataset.
func TestQ1Sanity(t *testing.T) {
	db, err := NewDatabase(engine.Config{Routines: core.AllRoutines}, testSF)
	if err != nil {
		t.Fatal(err)
	}
	r, err := db.Query(Queries()[1])
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) == 0 || len(r.Rows) > 4 {
		t.Fatalf("q1 groups = %d, want 1..4 (returnflag × linestatus)", len(r.Rows))
	}
	if len(r.Cols) != 10 {
		t.Fatalf("q1 cols = %d", len(r.Cols))
	}
	// count_order is positive and avg consistent with sum/count.
	for _, row := range r.Rows {
		count := float64(row[9].Int64())
		if count <= 0 {
			t.Fatal("empty q1 group")
		}
		sumQty, avgQty := row[2].Float64(), row[6].Float64()
		if diff := sumQty/count - avgQty; diff > 1e-6 || diff < -1e-6 {
			t.Errorf("avg_qty inconsistent: %v vs %v", sumQty/count, avgQty)
		}
	}
}
