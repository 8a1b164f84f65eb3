package main

import (
	"math"
	"testing"

	"microspec/internal/core"
	"microspec/internal/tpch"
)

// TestDeterministicCountsRepeat loads two databases from the same
// generator and checks that a fixed-order pass charges exactly the same
// abstract instructions and bee calls on both; allocations may move a
// little with the runtime, so they get a small tolerance.
func TestDeterministicCountsRepeat(t *testing.T) {
	const sf = 0.002
	var dets []tpchDeterministic
	for i := 0; i < 2; i++ {
		db, err := tpch.NewDatabase(tpchConfig(core.AllRoutines), sf)
		if err != nil {
			t.Fatal(err)
		}
		var qs []tpchQuery
		for _, n := range tpch.QueryNumbers() {
			qs = append(qs, tpchQuery{num: n, text: tpch.Queries()[n]})
		}
		det, err := tpchCounts(db, qs)
		if err != nil {
			t.Fatal(err)
		}
		dets = append(dets, det)
	}
	a, b := dets[0], dets[1]
	if a.instr["total"] == 0 || a.calls["gcl"] == 0 {
		t.Fatalf("no work counted: %v %v", a.instr, a.calls)
	}
	for k, v := range a.instr {
		if b.instr[k] != v {
			t.Errorf("profile.instr.%s: %d then %d", k, v, b.instr[k])
		}
	}
	for k, v := range a.calls {
		if b.calls[k] != v {
			t.Errorf("core.calls.%s: %d then %d", k, v, b.calls[k])
		}
	}
	if d := math.Abs(a.allocs-b.allocs) / a.allocs; d > 0.01 {
		t.Errorf("allocations moved %.2f%%: %v then %v", 100*d, a.allocs, b.allocs)
	}
}
