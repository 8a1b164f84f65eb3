package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"microspec/internal/core"
	"microspec/internal/exec"
	"microspec/internal/storage/buffer"
	"microspec/internal/storage/disk"
)

// faultDB builds a bee-enabled database over the given page store (nil =
// plain manager) with one multi-page table "ft" of n rows.
func faultDB(t testing.TB, dev disk.Device, n int) *DB {
	t.Helper()
	db := Open(Config{Routines: core.AllRoutines, PoolPages: 256, Workers: 4, Disk: dev})
	mustExec(t, db, `create table ft (
		f_id integer not null,
		f_grp integer not null,
		f_val double not null,
		f_pad char(40) not null,
		primary key (f_id))`)
	for i := 1; i <= n; i++ {
		mustExec(t, db, fmt.Sprintf(
			"insert into ft values (%d, %d, %d.5, 'pad-%d')", i, i%5, i, i))
	}
	return db
}

func TestQueryContextCancelParallelScan(t *testing.T) {
	db := faultDB(t, nil, 4000)
	const q = "select f_grp, sum(f_val) from ft where f_val > 10.0 group by f_grp"
	pl, err := db.ExplainQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(pl, "Gather workers=") {
		t.Fatalf("expected a Gather plan, got:\n%s", pl)
	}

	// Baseline: the query works under a live context.
	if _, err := db.QueryContext(context.Background(), q); err != nil {
		t.Fatalf("baseline: %v", err)
	}

	// A cancelled context stops every partition worker mid-scan.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = db.QueryContext(ctx, q)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := db.MetricsSnapshot().Counters["queries_cancelled"]; got < 1 {
		t.Errorf("queries_cancelled = %d, want >= 1", got)
	}
}

func TestQueryContextCancelMidQuery(t *testing.T) {
	db := faultDB(t, nil, 2000)
	// A quadratic self-join: slow enough that the cancel lands mid-query.
	const q = "select count(*) from ft a, ft b where a.f_val < b.f_val"
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := db.QueryContext(ctx, q)
		errCh <- err
	}()
	time.Sleep(2 * time.Millisecond)
	cancel()
	select {
	case err := <-errCh:
		// The query may legitimately finish before the cancel on a fast
		// machine; only a wrong error kind is a failure.
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled or nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled query did not return")
	}
}

func TestStatementTimeout(t *testing.T) {
	db := faultDB(t, nil, 2000)
	db.SetStatementTimeout(time.Millisecond)
	defer db.SetStatementTimeout(0)
	_, err := db.Query("select count(*) from ft a, ft b where a.f_val < b.f_val")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if got := db.MetricsSnapshot().Counters["queries_timed_out"]; got < 1 {
		t.Errorf("queries_timed_out = %d, want >= 1", got)
	}
}

func TestQuarantineFallbackSerial(t *testing.T) {
	db := faultDB(t, nil, 500)
	db.SetWorkers(1)
	const q = "select f_id from ft where f_grp = 3 order by f_id"
	baseline := mustQuery(t, db, q)

	// Arm the failpoint: every EVP bee invocation panics. The engine must
	// contain the panic, quarantine the plan's bees, and transparently
	// re-run on the generic path with identical results.
	db.Module().InjectBeePanic(core.KindEVP, "")
	defer db.Module().ClearBeePanic()
	res, err := db.Query(q)
	if err != nil {
		t.Fatalf("query with panicking bee: %v", err)
	}
	if len(res.Rows) != len(baseline.Rows) {
		t.Fatalf("fallback returned %d rows, baseline %d", len(res.Rows), len(baseline.Rows))
	}
	for i := range res.Rows {
		if res.Rows[i][0].Int64() != baseline.Rows[i][0].Int64() {
			t.Fatalf("row %d: %v != %v", i, res.Rows[i][0], baseline.Rows[i][0])
		}
	}
	st := db.Module().Stats()
	if st.Quarantined < 1 || st.QuarantinedNow < 1 {
		t.Errorf("quarantined=%d now=%d, want >= 1", st.Quarantined, st.QuarantinedNow)
	}
	snap := db.MetricsSnapshot()
	if snap.Counters["bees_quarantined"] < 1 {
		t.Errorf("bees_quarantined metric = %d, want >= 1", snap.Counters["bees_quarantined"])
	}
	if snap.Counters["quarantine_retries"] < 1 {
		t.Errorf("quarantine_retries metric = %d, want >= 1", snap.Counters["quarantine_retries"])
	}

	// Quarantine is visible in the cache listing.
	found := false
	for _, e := range db.Module().CacheEntries() {
		if e.Quarantined {
			found = true
		}
	}
	if !found {
		t.Error("no cache entry marked quarantined")
	}
	if n := db.Module().ClearQuarantine(); n < 1 {
		t.Errorf("ClearQuarantine lifted %d, want >= 1", n)
	}
}

func TestQuarantineFallbackParallelWorkerPanic(t *testing.T) {
	db := faultDB(t, nil, 4000)
	const q = "select f_grp, count(*) from ft where f_val > 10.0 group by f_grp"
	baseline := mustQuery(t, db, q)

	// The panic fires on Gather worker goroutines; the worker recover must
	// contain it (a bare goroutine panic would kill the process).
	db.Module().InjectBeePanic(core.KindEVP, "")
	defer db.Module().ClearBeePanic()
	res, err := db.Query(q)
	if err != nil {
		t.Fatalf("parallel query with panicking bee: %v", err)
	}
	if len(res.Rows) != len(baseline.Rows) {
		t.Fatalf("fallback returned %d groups, baseline %d", len(res.Rows), len(baseline.Rows))
	}
	db.Module().ClearQuarantine()
}

func TestPanicWithoutBeesSurfacesError(t *testing.T) {
	db := faultDB(t, nil, 100)
	db.SetWorkers(1)
	// Quarantine-everything first so the retry condition (a newly
	// quarantined bee) cannot hold; the panic must surface as a typed
	// error, not loop or crash.
	db.Module().InjectBeePanic("", "")
	defer db.Module().ClearBeePanic()
	_, err := db.Query("select f_id from ft where f_grp = 3")
	if err == nil {
		// First run retried onto the generic path successfully.
		db.Module().ClearQuarantine()
		return
	}
	var pe *exec.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *exec.PanicError", err)
	}
	db.Module().ClearQuarantine()
}

func TestCorruptPageTypedErrorNotWrongRows(t *testing.T) {
	db := faultDB(t, nil, 500)
	if err := db.Pool().FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := db.DropCaches(); err != nil {
		t.Fatal(err)
	}
	h, err := db.HeapOf("ft")
	if err != nil {
		t.Fatal(err)
	}
	m, ok := db.Disk().(*disk.Manager)
	if !ok {
		t.Fatalf("disk is %T, want *disk.Manager", db.Disk())
	}
	// Flip a byte inside the stored tuple area of page 0.
	if err := m.CorruptPage(h.File(), 0, 4096, 0x20); err != nil {
		t.Fatal(err)
	}
	_, err = db.Query("select count(*) from ft")
	if err == nil {
		t.Fatal("query over corrupt page must fail, not return rows")
	}
	if !buffer.IsCorrupt(err) {
		t.Fatalf("err = %v, want corrupt-page error", err)
	}
	if got := db.MetricsSnapshot().Counters["checksum_failures"]; got < 1 {
		t.Errorf("checksum_failures = %d, want >= 1", got)
	}
}

func TestTransientDiskFaultInvisibleToQueries(t *testing.T) {
	fd := disk.NewFaulty(disk.NewManager(disk.LatencyModel{}), disk.FaultConfig{Seed: 11})
	db := faultDB(t, fd, 500)
	baseline := mustQuery(t, db, "select count(*) from ft")
	if err := db.DropCaches(); err != nil {
		t.Fatal(err)
	}
	fd.SetEnabled(true)
	fd.FailNextReads(2)
	res := mustQuery(t, db, "select count(*) from ft")
	if res.Rows[0][0].Int64() != baseline.Rows[0][0].Int64() {
		t.Fatalf("count %v != baseline %v", res.Rows[0][0], baseline.Rows[0][0])
	}
	snap := db.MetricsSnapshot()
	if snap.Counters["disk_read_retries"] < 2 {
		t.Errorf("disk_read_retries = %d, want >= 2", snap.Counters["disk_read_retries"])
	}
	if snap.Counters["disk_faults_injected"] < 2 {
		t.Errorf("disk_faults_injected = %d, want >= 2", snap.Counters["disk_faults_injected"])
	}
}
