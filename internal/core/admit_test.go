package core

import (
	"fmt"
	"testing"

	"microspec/internal/expr"
	"microspec/internal/profile"
	"microspec/internal/types"
)

// TestAdmissionPolicy drives every compile entry point through the
// refusal cases of the admission policy: routine class off, bee
// quarantined, and bee demoted by the advisor. It then checks that the
// forms of one predicate are admitted as one bee. The expected policy is
// spelled out here, independently of the table in admit.go: only the
// EVP family is tier-gated, IDX is never quarantined, and transaction
// bees have no routine flag.
func TestAdmissionPolicy(t *testing.T) {
	pred := &expr.Cmp{Op: expr.LT, L: &expr.Var{Idx: 0, T: types.Int32}, R: expr.NewConst(types.NewInt32(10))}
	cases := []struct {
		kind, name string
		// off disables the kind's routine class; nil when it has none.
		off        func(*RoutineSet)
		quarantine bool
		tiered     bool
		compile    func(*Module) bool
	}{
		{KindEVP, pred.String(), func(rs *RoutineSet) { rs.EVP = false }, true, true,
			func(m *Module) bool { _, ok := m.CompilePredicate(pred); return ok }},
		{KindEVA, pred.String(), func(rs *RoutineSet) { rs.EVA = false }, true, false,
			func(m *Module) bool { _, ok := m.CompileScalar(pred); return ok }},
		{KindEVJ, "keys[0]/[1] [integer]", func(rs *RoutineSet) { rs.EVJ = false }, true, false,
			func(m *Module) bool {
				_, ok := m.CompileJoinKeys([]int{0}, []int{1}, []types.T{types.Int32})
				return ok
			}},
		{KindIDX, fmt.Sprint([]types.T{types.Int32}), func(rs *RoutineSet) { rs.IDX = false }, false, false,
			func(m *Module) bool { _, ok := m.CompileIndexCmp([]types.T{types.Int32}); return ok }},
		{KindTxn, "pay", nil, true, false,
			func(m *Module) bool {
				_, ok := m.RegisterTxnBee("pay", "txn pay", TxnOpBeeCost, TxnOpStockCost)
				return ok
			}},
	}
	for _, c := range cases {
		t.Run(c.kind, func(t *testing.T) {
			m := NewModule(AllRoutines)
			if !c.compile(m) {
				t.Fatal("refused with every routine enabled")
			}
			if _, ok := m.Cache().Get(c.kind, c.name); !ok {
				t.Fatalf("admitted bee not cached under (%s, %s)", c.kind, c.name)
			}

			if c.off != nil {
				rs := AllRoutines
				c.off(&rs)
				if c.compile(NewModule(rs)) {
					t.Error("admitted with its routine class disabled")
				}
			}

			m = NewModule(AllRoutines)
			m.Quarantine(c.kind, c.name)
			if got := c.compile(m); got == c.quarantine {
				t.Errorf("quarantined: admitted=%v, want %v", got, !c.quarantine)
			}

			m = NewModule(AllRoutines)
			m.RestoreDemotedBee(c.kind, c.name, 4)
			if got := c.compile(m); got == c.tiered {
				t.Errorf("demoted: admitted=%v, want %v", got, !c.tiered)
			}
		})
	}
	t.Run("forms of one predicate", func(t *testing.T) { onePredicateIsOneBee(t, pred) })
}

// onePredicateIsOneBee pins that the row, batch, and fused forms of one
// predicate, and a replan that compiles it again, are one bee: one
// QueryBees count, one cache entry, one descriptor.
func onePredicateIsOneBee(t *testing.T, pred expr.Expr) {
	m, rel, _ := beeDB(t, AllRoutines)
	bees0, cached0 := m.Stats().QueryBees, m.Cache().Len()

	p, ok := m.CompilePredicate(pred)
	if !ok {
		t.Fatal("EVP refused")
	}
	ctx := &expr.Ctx{Prof: &profile.Counters{}}
	rows := []expr.Row{{types.NewInt32(3)}, {types.NewInt32(30)}, {types.Null}}
	if sel := p.Select(rows, nil, nil, ctx); len(sel) != 1 || sel[0] != 0 {
		t.Errorf("batch form selected %v, want [0]", sel)
	}
	for i, want := range []bool{true, false, false} {
		if v := p.Eval(rows[i], ctx); (!v.IsNull() && v.Bool()) != want {
			t.Errorf("row form on %v = %v", rows[i], v)
		}
	}
	fs, ok := m.CompileFusedScanFilter(rel, pred, len(rel.Attrs))
	if !ok {
		t.Fatal("fused form refused")
	}
	again, ok := m.CompilePredicate(pred)
	if !ok {
		t.Fatal("replan refused")
	}

	if d := m.Stats().QueryBees - bees0; d != 1 {
		t.Errorf("QueryBees grew by %d, want 1", d)
	}
	if d := m.Cache().Len() - cached0; d != 1 {
		t.Errorf("cache grew by %d entries, want 1", d)
	}
	if fs.Bee != p.Bee || again.Bee != p.Bee {
		t.Error("forms of one predicate carry different descriptors")
	}
	if fresh, readmitted := m.Admissions(); fresh != 1 || readmitted != 2 {
		t.Errorf("admissions = %d new / %d again, want 1 / 2", fresh, readmitted)
	}
}
