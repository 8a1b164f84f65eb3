package engine

import (
	"context"
	"fmt"
	"regexp"
	"strconv"
	"testing"

	"microspec/internal/core"
	"microspec/internal/trace"
	"microspec/internal/types"
)

// TestJoinQualsCountEVPCalls pins that EVP bees evaluated as a hash-join
// residual and as a nested-loop join qual report their invocations to
// the module's EVP call counter, like filter bees do.
func TestJoinQualsCountEVPCalls(t *testing.T) {
	db := setupMini(t, core.AllRoutines)
	for _, q := range []string{
		"select count(*) from emp a join dept d on a.e_dept = d.d_id and a.e_id > d.d_id",
		"select count(*) from emp a join dept d on a.e_id < d.d_id",
	} {
		before := db.Module().Stats().EVPCalls
		mustQuery(t, db, q)
		if after := db.Module().Stats().EVPCalls; after <= before {
			t.Errorf("%s: EVPCalls %d → %d, want it to grow", q, before, after)
		}
	}
}

// TestAdhocRerunKeepsQueryBeesFlat pins that QueryBees counts distinct
// bees: re-running one ad-hoc query re-admits its bees without counting
// them again.
func TestAdhocRerunKeepsQueryBeesFlat(t *testing.T) {
	db := setupMini(t, core.AllRoutines)
	q := "select d_name, sum(e_salary * 2) from emp, dept where e_dept = d_id and e_salary > 1200.0 group by d_name"
	mustQuery(t, db, q)
	first := db.Module().Stats().QueryBees
	for i := 0; i < 2; i++ {
		mustQuery(t, db, q)
	}
	if got := db.Module().Stats().QueryBees; got != first {
		t.Errorf("QueryBees %d after the first run, %d after two more", first, got)
	}
}

var planNoteRE = regexp.MustCompile(`^bees new=(\d+) readmitted=(\d+)$`)

// TestTracedPlanNotesAdmissions pins the plan span's note: a first
// execution reports the bees it admitted as new, a re-execution of the
// same text reports them as re-admitted, for each query-bee kind.
func TestTracedPlanNotesAdmissions(t *testing.T) {
	db := setupMini(t, core.AllRoutines)
	tr := trace.NewTracer()
	tr.Enable(1)
	note := func(q string) (fresh, again int) {
		t.Helper()
		at := tr.Start(0, "query", q)
		if _, err := db.QueryContext(trace.NewContext(context.Background(), at), q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		at.Finish(nil)
		for _, sp := range tr.Find(at.ID()).Spans {
			if sp.Name != "plan" {
				continue
			}
			m := planNoteRE.FindStringSubmatch(sp.Note)
			if m == nil {
				t.Fatalf("%s: plan note %q", q, sp.Note)
			}
			fresh, _ = strconv.Atoi(m[1])
			again, _ = strconv.Atoi(m[2])
			return fresh, again
		}
		t.Fatalf("%s: no plan span", q)
		return 0, 0
	}
	for kind, q := range map[string]string{
		core.KindEVP: "select e_name from emp where e_salary > 1500.0",
		core.KindEVA: "select sum(e_salary * 3) from emp",
		core.KindEVJ: "select count(*) from emp, dept where e_dept = d_id",
	} {
		if fresh, _ := note(q); fresh == 0 {
			t.Errorf("%s: first run admitted no new bee", kind)
		}
		if fresh, again := note(q); fresh != 0 || again == 0 {
			t.Errorf("%s: rerun noted new=%d readmitted=%d, want 0 and >0", kind, fresh, again)
		}
	}
}

// TestDoubleColumnsMatchStock pins that integer values stored into a
// DOUBLE column read back the same on the bee engine as on the stock
// engine, through statement DML, the transaction API and bulk load: the
// relation bee's fill routine must convert them as tuple.Form does.
func TestDoubleColumnsMatchStock(t *testing.T) {
	var want string
	for _, rs := range []core.RoutineSet{core.Stock, core.AllRoutines} {
		db := newDB(t, rs)
		mustExec(t, db,
			"create table t (k integer not null, d double not null)",
			"insert into t values (1, 1000)",
			"insert into t values (2, 2.5)",
			"update t set d = 7 where k = 2",
		)
		// The transaction API and bulk loads store through the same fill
		// routine.
		tx := db.Begin(nil)
		if err := tx.Insert("t", []types.Datum{types.NewInt32(3), types.NewInt32(40)}); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		loaded := false
		if _, err := db.BulkLoad("t", nil, func() ([]types.Datum, bool) {
			if loaded {
				return nil, false
			}
			loaded = true
			return []types.Datum{types.NewInt32(4), types.NewInt64(-5)}, true
		}); err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprint(mustQuery(t, db, "select k, d from t order by k").Rows)
		if want == "" {
			want = got
			if want != "[[1 1000.00] [2 7.00] [3 40.00] [4 -5.00]]" {
				t.Fatalf("stock rows = %s", want)
			}
		} else if got != want {
			t.Errorf("bee rows = %s, stock rows = %s", got, want)
		}
	}
}
