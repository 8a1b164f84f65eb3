package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"microspec/internal/core"
	"microspec/internal/engine"
	"microspec/internal/storage/disk"
	"microspec/internal/tpcc"
	"microspec/internal/txn"
)

// The tpcc workload runs writes beside reads on a working set larger
// than the buffer pool: B+trees, heap inserts, MVCC, latches, the WAL
// with group commit, eviction with WAL-before-data, and vacuum do the
// work, while parse, plan and scan bees do almost none.
const (
	tpccWarehouses = 1
	tpccTerminals  = 2
	// tpccPoolPages is about a third of the 6,409 data pages of the
	// specification-sized one-warehouse population, so the run misses
	// and evicts.
	tpccPoolPages = 2048
	// tpccFsync is the simulated fsync charge. It is added to the
	// device's simulated I/O time and never slept: a sleep this short
	// measures the host's timer rather than the engine.
	tpccFsync  = 200 * time.Microsecond
	tpccSetups = 3
	// tpccWarmTxns is each terminal's untimed warm-up, which compiles
	// the transaction bees' plans and fills the pool.
	tpccWarmTxns = 200
)

var tpccTypes = []tpcc.TxnType{tpcc.TxnNewOrder, tpcc.TxnPayment, tpcc.TxnOrderStatus, tpcc.TxnDelivery, tpcc.TxnStockLevel}

// tpccSystem is one loaded database with its terminals.
type tpccSystem struct {
	db    *engine.DB
	dm    *disk.Manager
	execs []*tpcc.Executor
}

func (s *tpccSystem) close() {
	if s != nil {
		s.db.Close()
	}
}

func setupTPCC(seed int64) (*tpccSystem, error) {
	dm := disk.NewManager(disk.LatencyModel{LogSyncTime: tpccFsync})
	cfg := engine.Config{
		Routines:   core.AllRoutines,
		PoolPages:  tpccPoolPages,
		Workers:    1,
		Disk:       dm,
		Durability: engine.DurabilityConfig{WAL: true},
	}
	db, err := tpcc.NewDatabase(cfg, tpcc.DefaultConfig(tpccWarehouses))
	if err != nil {
		return nil, err
	}
	s := &tpccSystem{db: db, dm: dm}
	for i := 0; i < tpccTerminals; i++ {
		e := tpcc.NewExecutor(db, tpcc.DefaultConfig(tpccWarehouses), seed*1000+int64(i))
		if err := e.EnableTxnBees(); err != nil {
			s.close()
			return nil, err
		}
		s.execs = append(s.execs, e)
	}
	for _, e := range s.execs {
		for n := 0; n < tpccWarmTxns; n++ {
			if _, _, err := runTPCCTxn(e, pickTPCC(e), nil, 0); err != nil {
				s.close()
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	return s, nil
}

// pickTPCC draws the next transaction type from the standard mix
// (45/43/4/4/4) with the terminal's own random stream.
func pickTPCC(e *tpcc.Executor) tpcc.TxnType {
	r := e.Rng.Intn(1000)
	for _, t := range tpccTypes {
		if r < tpcc.DefaultMix[t] {
			return t
		}
		r -= tpcc.DefaultMix[t]
	}
	return tpcc.TxnNewOrder
}

// runTPCCTxn runs one transaction, retrying first-updater-wins
// conflicts; the retries count in its latency. It reports whether the
// transaction was the specified New-Order rollback (not a failure) and
// how many conflicts it retried. With a recorder, each Executor call is
// a child span of the transaction's span, carrying the deltas of the
// buffer pool and group-commit counters over the call.
func runTPCCTxn(e *tpcc.Executor, t tpcc.TxnType, rec *recorder, op int64) (rolledBack bool, conflicts int, err error) {
	root := -1
	if rec != nil {
		root = rec.begin("tpcc."+t.String(), op, -1)
		defer rec.end(root)
	}
	for {
		var s int
		var h0, m0, w0, waits0 int64
		if rec != nil {
			h0, m0, w0 = e.DB.Pool().Stats()
			_, waits0 = e.DB.WALWriter().Stats()
			s = rec.begin("Executor."+t.String(), op, root)
		}
		switch t {
		case tpcc.TxnNewOrder:
			err = e.NewOrder()
		case tpcc.TxnPayment:
			err = e.Payment()
		case tpcc.TxnOrderStatus:
			err = e.OrderStatus()
		case tpcc.TxnDelivery:
			err = e.Delivery()
		default:
			err = e.StockLevel()
		}
		if rec != nil {
			rec.end(s)
			h1, m1, w1 := e.DB.Pool().Stats()
			_, waits1 := e.DB.WALWriter().Stats()
			rec.spans[s].Attrs = map[string]int64{
				"buffer_hits": h1 - h0, "buffer_misses": m1 - m0,
				"write_backs": w1 - w0, "wal_waits": waits1 - waits0,
			}
		}
		if errors.Is(err, txn.ErrWriteConflict) {
			conflicts++
			continue
		}
		if errors.Is(err, tpcc.ErrRollback) {
			return true, conflicts, nil
		}
		return false, conflicts, err
	}
}

// tpccTally is what the terminals did beyond their op times.
type tpccTally struct {
	newOrders, rolledBack, conflicts int64
}

// drive runs every terminal in a closed loop until the window has
// elapsed and the run holds enough samples for the tail percentile.
// Each terminal is locked to its thread, so a transaction's thread CPU
// time is its own work: the log writer's and collector's work run on
// other threads, and cpu_ms_per_op counts them.
func (s *tpccSystem) drive(rep *report, window time.Duration, recs []*recorder) (*window, tpccTally) {
	minOps := int64(minSamples(tailQuantile["tpcc"]))
	var (
		mu    sync.Mutex
		wg    sync.WaitGroup
		total int64
		out   = newWindow()
		tally tpccTally
	)
	start, c0 := time.Now(), processCPU()
	for i, e := range s.execs {
		var rec *recorder
		if recs != nil {
			rec = recs[i]
		}
		wg.Add(1)
		go func(e *tpcc.Executor, rec *recorder) {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			w := newWindow()
			var t tpccTally
			var fails []string
			for {
				mu.Lock()
				stop := time.Since(start) >= window && total >= minOps
				if !stop {
					total++
				}
				mu.Unlock()
				if stop {
					break
				}
				typ := pickTPCC(e)
				t0, c0 := time.Now(), threadCPU()
				rb, c, err := runTPCCTxn(e, typ, rec, w.ops)
				w.cpu.add(typ.String(), threadCPU()-c0)
				w.record(typ.String(), time.Since(t0))
				t.conflicts += int64(c)
				switch {
				case err != nil:
					fails = append(fails, fmt.Sprintf("%v: %v", typ, err))
				case rb:
					t.rolledBack++
				case typ == tpcc.TxnNewOrder:
					t.newOrders++
				}
			}
			mu.Lock()
			defer mu.Unlock()
			out.merge(w)
			tally.newOrders += t.newOrders
			tally.rolledBack += t.rolledBack
			tally.conflicts += t.conflicts
			rep.attempted += w.ops
			for _, f := range fails {
				rep.fail("%s", f)
			}
		}(e, rec)
	}
	wg.Wait()
	out.elapsed, out.procCPU = time.Since(start), processCPU()-c0
	return out, tally
}

// checkTPCC asserts the consistency conditions the mix maintains:
// w_ytd equals the sum of its districts' d_ytd, and every order has
// order lines.
func checkTPCC(rep *report, db *engine.DB) error {
	for w := 1; w <= tpccWarehouses; w++ {
		wr, err := db.Query(fmt.Sprintf("select w_ytd from warehouse where w_id = %d", w))
		if err != nil {
			return err
		}
		dr, err := db.Query(fmt.Sprintf("select sum(d_ytd) from district where d_w_id = %d", w))
		if err != nil {
			return err
		}
		a, b := wr.Rows[0][0].Float64(), dr.Rows[0][0].Float64()
		if math.Abs(a-b) > 1e-9*math.Max(math.Abs(a), math.Abs(b)) {
			rep.fail("consistency: warehouse %d w_ytd %v != sum(d_ytd) %v", w, a, b)
		}
	}
	r, err := db.Query(`select count(*) from orders
		where not exists (select * from order_line
			where ol_w_id = o_w_id and ol_d_id = o_d_id and ol_o_id = o_id)`)
	if err != nil {
		return err
	}
	if n := r.Rows[0][0].Int64(); n != 0 {
		rep.fail("consistency: %d orders without order lines", n)
	}
	return nil
}

func runTPCC(o options) (*report, error) {
	rep := &report{env: map[string]any{
		"warehouses": tpccWarehouses, "terminals": tpccTerminals,
		"population": "specification (tpcc.DefaultConfig)", "mix": "45/43/4/4/4",
		"routines": "all, transaction bees", "durability": "WAL, group commit",
		"fsync_charge_us": tpccFsync.Microseconds(), "fsync_slept": false, "tail": "p99",
	}}
	setups := tpccSetups
	if o.trace {
		setups = 1
	}
	sys, setupCPU, setupWall, err := repeatSetup(setups, func() (*tpccSystem, error) { return setupTPCC(o.seed) }, (*tpccSystem).close)
	if err != nil {
		return nil, err
	}
	defer sys.close()
	rep.env["workers"] = sys.db.Workers()
	rep.env["pool_pages"] = sys.db.Pool().Capacity()
	rep.env["data_pages"] = sys.db.TotalPages()
	if o.trace {
		return tracedTPCC(o, rep, sys)
	}

	heap := liveHeapMB()
	w, tally := sys.drive(rep, o.window, nil)
	if err := checkTPCC(rep, sys.db); err != nil {
		return nil, err
	}
	m, err := endToEndMetrics(w)
	if err != nil {
		return nil, err
	}
	f, err := wallFigures("tpcc", w)
	if err != nil {
		return nil, err
	}
	m["setup_s"], m["live_heap_mb"] = setupCPU, heap
	rep.metrics = m
	p := func(t tpcc.TxnType, q float64) float64 {
		v, err := percentile(ms(w.wall[t.String()]), q)
		if err != nil {
			return math.NaN()
		}
		return v
	}
	rep.detailf("tpmc %.0f txn/min (committed New-Orders over %v)", float64(tally.newOrders)/w.elapsed.Minutes(), w.elapsed.Round(time.Millisecond))
	rep.detailf("new_order_p50_ms %.3f ms, new_order_p99_ms %.3f ms (%d samples)", p(tpcc.TxnNewOrder, 0.5), p(tpcc.TxnNewOrder, 0.99), len(w.wall["NewOrder"]))
	rep.detailf("payment_p50_ms %.3f ms, payment_p99_ms %.3f ms (%d samples)", p(tpcc.TxnPayment, 0.5), p(tpcc.TxnPayment, 0.99), len(w.wall["Payment"]))
	rep.detailf("order_status_p50_ms %.3f ms (%d samples)", p(tpcc.TxnOrderStatus, 0.5), len(w.wall["OrderStatus"]))
	rep.detailf("ops_s %.1f txn/s, p50_ms %.3f ms, p99_ms %.3f ms over %d transactions; %d rolled back as specified, %d conflicts retried",
		f["ops_s"], f["p50_ms"], f["tail_ms"], w.ops, tally.rolledBack, tally.conflicts)
	rep.detailf("cpu_ms_per_op %.4f ms, op_cpu_geomean_ms %.4f ms", m["cpu_ms_per_op"], m["op_cpu_geomean_ms"])
	rep.detailf("median CPU ms per op by type: %s", w.cpuByType())
	rep.detailf("setup %.3f s wall, %.3f s CPU (median of %d)", setupWall, setupCPU, setups)
	rep.detailf("error_ratio %g (%d of %d)", ratio(float64(rep.failed), float64(rep.attempted)), rep.failed, rep.attempted)
	return rep, nil
}

// tracedTPCC measures an untraced window and then a traced one, in which
// every transaction is a span with one child span per Executor call.
func tracedTPCC(o options, rep *report, sys *tpccSystem) (*report, error) {
	half := o.window / 2
	u, _ := sys.drive(rep, half, nil)
	var recs []*recorder
	epoch := time.Now()
	for range sys.execs {
		recs = append(recs, newRecorder(epoch))
	}
	before := readCounters(sys.db, sys.dm.LogDurable)
	t, _ := sys.drive(rep, half, recs)
	after := readCounters(sys.db, sys.dm.LogDurable)
	if err := checkTPCC(rep, sys.db); err != nil {
		return nil, err
	}
	m := newLayerMetrics()
	addWindowLayers(m, before, after, t.ops)
	if err := addWallLayers(m, "tpcc", u); err != nil {
		return nil, err
	}
	m["trace.overhead_pct"] = overheadPct(u, t)
	rep.metrics = m
	rep.detailf("untraced window %d txns in %v; traced window %d txns in %v",
		u.ops, u.elapsed.Round(time.Millisecond), t.ops, t.elapsed.Round(time.Millisecond))
	if err := writeSpans(spansPath(o), recs); err != nil {
		return nil, err
	}
	return rep, nil
}
