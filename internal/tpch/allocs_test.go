//go:build !race

// The race detector makes the standard library's sync.Pool (fmt's
// printer cache among others) drop items at random, so allocation counts
// are not deterministic under -race; this gate runs only without it.

package tpch

import (
	"testing"

	"microspec/internal/core"
	"microspec/internal/engine"
)

// joinQueryAllocBound is the per-execution allocation ceiling of the
// join-heavy queries on the bee engine at SF 0.01 with one worker: 10% of
// what each query allocated while hash joins, aggregation, sorts and
// materialization cloned every buffered row. Measured then, per
// execution: Q5 314,186, Q7 239,128, Q8 260,597, Q9 330,898,
// Q18 350,672, Q21 386,246 (repeated measurements differ by a few
// allocations). With rows copied into chunked arenas
// (internal/exec/arena.go) each runs at about 2-4.5k.
var joinQueryAllocBound = map[int]float64{
	5:  31_418,
	7:  23_912,
	8:  26_059,
	9:  33_089,
	18: 35_067,
	21: 38_624,
}

func TestJoinQueryAllocs(t *testing.T) {
	db, err := NewDatabase(engine.Config{Routines: core.AllRoutines, Workers: 1}, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	for _, qn := range []int{5, 7, 8, 9, 18, 21} {
		q := Queries()[qn]
		var qerr error
		allocs := testing.AllocsPerRun(2, func() {
			if _, err := db.Query(q); err != nil {
				qerr = err
			}
		})
		if qerr != nil {
			t.Fatalf("q%d: %v", qn, qerr)
		}
		t.Logf("q%d: %.0f allocs per execution (bound %.0f)", qn, allocs, joinQueryAllocBound[qn])
		if allocs > joinQueryAllocBound[qn] {
			t.Errorf("q%d: %.0f allocs per execution, want ≤ %.0f", qn, allocs, joinQueryAllocBound[qn])
		}
	}
}
