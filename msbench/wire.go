package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"time"

	"microspec/internal/client"
	"microspec/internal/core"
	"microspec/internal/engine"
	"microspec/internal/server"
	"microspec/internal/sql"
	"microspec/internal/tpch"
	"microspec/internal/types"
	"microspec/internal/wire"
)

// The wire workload is short requests against an in-process server on
// loopback, where the wire codec, sessions, prepared-statement rebind
// and, for the ad-hoc reads, parse and plan take a large share of each
// request. No op scans a table: a range read over lineitem would be a
// full scan that swamps everything else.
const (
	wireSetups  = 3
	wireConns   = 2
	wireWarmOps = 300
	// Each client runs wireCalRounds batches of wireCalBatch ops of each
	// kind, for op_cpu_geomean_ms.
	wireCalRounds = 9
	wireCalBatch  = 200
	// The Payment tables: bench_kv rows, and warehouses × districts ×
	// customers for bench_district and bench_customer.
	wireKVRows      = 2000
	wireWarehouses  = 2
	wireDistricts   = 10
	wireCustPerDist = 30
	wireBalance     = 1000.0
)

// wireKinds are the op kinds, with the per-mille share of each.
var wireKinds = []struct {
	name  string
	share int
}{
	{"kv_get", 400},    // prepared, verified point read on bench_kv
	{"adhoc_get", 200}, // ad-hoc text point read of part by p_partkey
	{"order_get", 100}, // prepared point read of orders by o_orderkey
	{"payment", 300},   // four prepared statements
}

func kvVal(k int) string { return fmt.Sprintf("val-%d", k) }

// wireSystem is the server, its database and the client connections.
type wireSystem struct {
	db      *engine.DB
	srv     *server.Server
	clients []*wireClient
	// parts and orders hold the expected point-read results, read from
	// the database before the run.
	parts     map[int64]expectRow
	orderKeys []int64
	orders    map[int64]expectRow
}

type expectRow [2]types.Datum

func (s *wireSystem) close() {
	if s == nil {
		return
	}
	for _, c := range s.clients {
		c.conn.Close()
	}
	if s.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.srv.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "msbench: wire: server shutdown: %v\n", err)
		}
	}
	s.db.Close()
}

// wireClient is one connection's prepared statements and random stream.
type wireClient struct {
	sys                             *wireSystem
	conn                            *client.Conn
	rng                             *rand.Rand
	kvGet, orderGet                 *client.Stmt
	payDist, payGet, payUpd, payIns *client.Stmt
}

func setupWire(seed int64) (sys *wireSystem, err error) {
	db, err := tpch.NewDatabase(engine.Config{Routines: core.AllRoutines, Workers: 1}, tpchSF)
	if err != nil {
		return nil, err
	}
	sys = &wireSystem{db: db, parts: map[int64]expectRow{}, orders: map[int64]expectRow{}}
	defer func() {
		if err != nil {
			sys.close()
			sys = nil
		}
	}()
	res, err := db.Query("select p_partkey, p_name, p_retailprice from part")
	if err != nil {
		return nil, err
	}
	for _, r := range res.Rows {
		sys.parts[r[0].Int64()] = expectRow{r[1], r[2]}
	}
	if res, err = db.Query("select o_orderkey, o_custkey, o_totalprice from orders"); err != nil {
		return nil, err
	}
	for _, r := range res.Rows {
		sys.orderKeys = append(sys.orderKeys, r[0].Int64())
		sys.orders[r[0].Int64()] = expectRow{r[1], r[2]}
	}
	if sys.srv, err = server.Listen(server.Config{Addr: "127.0.0.1:0", DB: db}); err != nil {
		return nil, err
	}
	addr := sys.srv.Addr().String()
	if err := seedWireTables(addr); err != nil {
		return nil, fmt.Errorf("seeding bench tables: %w", err)
	}
	for i := 0; i < wireConns; i++ {
		c, err := newWireClient(sys, addr, seed*1000+int64(i))
		if err != nil {
			return nil, err
		}
		sys.clients = append(sys.clients, c)
	}
	warm := &report{}
	for _, c := range sys.clients {
		for n := 0; n < wireWarmOps; n++ {
			c.run(c.pick(), warm, nil, 0)
		}
	}
	if warm.failed > 0 {
		return nil, fmt.Errorf("warm-up: %v", warm.problems)
	}
	return sys, nil
}

// seedWireTables creates and fills the bench_* tables over the wire.
func seedWireTables(addr string) error {
	c, err := client.DialConfig(client.Config{Addr: addr})
	if err != nil {
		return err
	}
	defer c.Close()
	for _, ddl := range []string{
		`create table bench_kv (k integer not null, v varchar(32) not null, primary key (k))`,
		`create table bench_district (d_w_id integer not null, d_id integer not null,
			d_ytd double not null, primary key (d_w_id, d_id))`,
		`create table bench_customer (c_w_id integer not null, c_d_id integer not null,
			c_id integer not null, c_balance double not null, c_payment_cnt integer not null,
			primary key (c_w_id, c_d_id, c_id))`,
		`create table bench_history (h_c_id integer not null, h_d_id integer not null,
			h_w_id integer not null, h_amount double not null, h_data varchar(24) not null)`,
	} {
		if _, err := c.Exec(ddl); err != nil {
			return err
		}
	}
	ins, err := c.Prepare("insert into bench_kv values ($1, $2)")
	if err != nil {
		return err
	}
	defer ins.Close()
	for k := 0; k < wireKVRows; k++ {
		if _, err := ins.Exec(types.NewInt64(int64(k)), types.NewString(kvVal(k))); err != nil {
			return err
		}
	}
	insD, err := c.Prepare("insert into bench_district values ($1, $2, 0.0)")
	if err != nil {
		return err
	}
	defer insD.Close()
	insC, err := c.Prepare("insert into bench_customer values ($1, $2, $3, $4, 0)")
	if err != nil {
		return err
	}
	defer insC.Close()
	for w := int64(1); w <= wireWarehouses; w++ {
		for d := int64(1); d <= wireDistricts; d++ {
			if _, err := insD.Exec(types.NewInt64(w), types.NewInt64(d)); err != nil {
				return err
			}
			for cid := int64(1); cid <= wireCustPerDist; cid++ {
				if _, err := insC.Exec(types.NewInt64(w), types.NewInt64(d), types.NewInt64(cid),
					types.NewFloat64(wireBalance)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func newWireClient(sys *wireSystem, addr string, seed int64) (*wireClient, error) {
	conn, err := client.DialConfig(client.Config{Addr: addr})
	if err != nil {
		return nil, err
	}
	c := &wireClient{sys: sys, conn: conn, rng: rand.New(rand.NewSource(seed))}
	for _, p := range []struct {
		dst  **client.Stmt
		text string
	}{
		{&c.kvGet, "select v from bench_kv where k = $1"},
		{&c.orderGet, "select o_custkey, o_totalprice from orders where o_orderkey = $1"},
		{&c.payDist, "update bench_district set d_ytd = d_ytd + $1 where d_w_id = $2 and d_id = $3"},
		{&c.payGet, "select c_balance from bench_customer where c_w_id = $1 and c_d_id = $2 and c_id = $3"},
		{&c.payUpd, "update bench_customer set c_balance = c_balance - $1, c_payment_cnt = c_payment_cnt + 1 " +
			"where c_w_id = $2 and c_d_id = $3 and c_id = $4"},
		{&c.payIns, "insert into bench_history values ($1, $2, $3, $4, 'payment')"},
	} {
		if *p.dst, err = conn.Prepare(p.text); err != nil {
			conn.Close()
			return nil, fmt.Errorf("prepare %q: %w", p.text, err)
		}
	}
	return c, nil
}

// pick draws the next op kind from the mix.
func (c *wireClient) pick() string {
	r := c.rng.Intn(1000)
	for _, k := range wireKinds {
		if r < k.share {
			return k.name
		}
		r -= k.share
	}
	return wireKinds[0].name
}

// call runs one client call, as a child span of the op when traced.
func call[T any](rec *recorder, op int64, parent int, name string, f func() (T, error)) (T, error) {
	if rec == nil {
		return f()
	}
	s := rec.begin(name, op, parent)
	defer rec.end(s)
	return f()
}

// run runs one op of the given kind and checks its result. With a
// recorder the op is a span and each client call a child span of it.
func (c *wireClient) run(kind string, rep *report, rec *recorder, op int64) {
	root := -1
	if rec != nil {
		root = rec.begin("wire."+kind, op, -1)
		defer rec.end(root)
	}
	rep.attempted++
	var err error
	switch kind {
	case "kv_get":
		k := c.rng.Intn(wireKVRows)
		var res *client.Result
		res, err = call(rec, op, root, "client.Stmt.Query", func() (*client.Result, error) {
			return c.kvGet.Query(types.NewInt64(int64(k)))
		})
		if err == nil && (len(res.Rows) != 1 || res.Rows[0][0].Str() != kvVal(k)) {
			err = fmt.Errorf("bench_kv %d: got %v", k, res.Rows)
		}
	case "adhoc_get":
		pk := int64(1 + c.rng.Intn(len(c.sys.parts)))
		text := fmt.Sprintf("select p_name, p_retailprice from part where p_partkey = %d", pk)
		var res *client.Result
		res, err = call(rec, op, root, "client.Conn.Query", func() (*client.Result, error) {
			return c.conn.Query(text)
		})
		if err == nil {
			err = checkPoint(res, c.sys.parts[pk])
		}
	case "order_get":
		ok := c.sys.orderKeys[c.rng.Intn(len(c.sys.orderKeys))]
		var res *client.Result
		res, err = call(rec, op, root, "client.Stmt.Query", func() (*client.Result, error) {
			return c.orderGet.Query(types.NewInt64(ok))
		})
		if err == nil {
			err = checkPoint(res, c.sys.orders[ok])
		}
	default:
		err = c.payment(rec, op, root)
	}
	if err != nil {
		rep.fail("%s: %v", kind, err)
	}
}

// checkPoint verifies a one-row point read against its expected values.
func checkPoint(res *client.Result, want expectRow) error {
	if len(res.Rows) != 1 || len(res.Rows[0]) != 2 {
		return fmt.Errorf("got %d rows, want one of two columns", len(res.Rows))
	}
	for i := range want {
		if !sameDatum(res.Rows[0][i], want[i]) {
			return fmt.Errorf("column %d is %v, want %v", i, res.Rows[0][i], want[i])
		}
	}
	return nil
}

// payment runs the four Payment statements. Each is its own
// transaction; one that loses a first-updater-wins race is retried, so
// each statement takes effect exactly once and the money is conserved.
func (c *wireClient) payment(rec *recorder, op int64, parent int) error {
	w := types.NewInt64(int64(1 + c.rng.Intn(wireWarehouses)))
	d := types.NewInt64(int64(1 + c.rng.Intn(wireDistricts)))
	cid := types.NewInt64(int64(1 + c.rng.Intn(wireCustPerDist)))
	amount := types.NewFloat64(1 + float64(c.rng.Intn(500))/100)
	exec := func(s *client.Stmt, params ...types.Datum) error {
		for {
			_, err := call(rec, op, parent, "client.Stmt.Exec", func() (int64, error) { return s.Exec(params...) })
			var we *wire.Error
			if errors.As(err, &we) && we.Code == wire.CodeConflict {
				continue
			}
			return err
		}
	}
	if err := exec(c.payDist, amount, w, d); err != nil {
		return err
	}
	res, err := call(rec, op, parent, "client.Stmt.Query", func() (*client.Result, error) {
		return c.payGet.Query(w, d, cid)
	})
	if err != nil {
		return err
	}
	if len(res.Rows) != 1 {
		return fmt.Errorf("customer (%v,%v,%v): %d rows", w, d, cid, len(res.Rows))
	}
	if err := exec(c.payUpd, amount, w, d, cid); err != nil {
		return err
	}
	return exec(c.payIns, cid, d, w, amount)
}

// calibrate measures what each op kind costs in CPU. A request's work
// happens on the server's session goroutines, out of the clients'
// threads, so a sample is the process CPU of a batch in which every
// client runs wireCalBatch ops of one kind at once, divided by the ops
// in the batch. The kinds take turns over the rounds, which spreads any
// drift of the host evenly over them, and a collection before each batch
// keeps the collector's work, which would land on whichever batch it
// happened to fall in, out of the samples; cpu_ms_per_op counts it.
func (s *wireSystem) calibrate(rep *report) latencies {
	out := latencies{}
	var mu sync.Mutex
	for r := 0; r < wireCalRounds; r++ {
		for _, k := range wireKinds {
			runtime.GC()
			c0 := processCPU()
			var wg sync.WaitGroup
			for _, c := range s.clients {
				wg.Add(1)
				go func(c *wireClient) {
					defer wg.Done()
					local := &report{}
					for i := 0; i < wireCalBatch; i++ {
						c.run(k.name, local, nil, 0)
					}
					mu.Lock()
					defer mu.Unlock()
					rep.merge(local)
				}(c)
			}
			wg.Wait()
			out.add(k.name, (processCPU()-c0)/time.Duration(wireCalBatch*len(s.clients)))
		}
	}
	return out
}

// checkWire asserts that Payments conserved money: the customers'
// balances plus the history's amounts equal the starting balances, and
// the districts' year-to-date totals equal the history's amounts.
func checkWire(rep *report, db *engine.DB) error {
	sum := func(q string) (float64, error) {
		res, err := db.Query(q)
		if err != nil {
			return 0, err
		}
		return res.Rows[0][0].Float64(), nil
	}
	bal, err := sum("select sum(c_balance) from bench_customer")
	if err != nil {
		return err
	}
	hist, err := sum("select sum(h_amount) from bench_history")
	if err != nil {
		return err
	}
	ytd, err := sum("select sum(d_ytd) from bench_district")
	if err != nil {
		return err
	}
	start := wireBalance * wireWarehouses * wireDistricts * wireCustPerDist
	if math.Abs(bal+hist-start) > 1e-9*start {
		rep.fail("consistency: sum(c_balance) %v + sum(h_amount) %v != %v", bal, hist, start)
	}
	if math.Abs(ytd-hist) > 1e-9*start {
		rep.fail("consistency: sum(d_ytd) %v != sum(h_amount) %v", ytd, hist)
	}
	return nil
}

// drive runs every connection in a closed loop until the window has
// elapsed and the run holds enough samples for the tail percentile.
func (s *wireSystem) drive(rep *report, window time.Duration, recs []*recorder) *window {
	minOps := int64(minSamples(tailQuantile["wire"]))
	var (
		mu    sync.Mutex
		wg    sync.WaitGroup
		total int64
		out   = newWindow()
	)
	start, c0 := time.Now(), processCPU()
	for i, c := range s.clients {
		var rec *recorder
		if recs != nil {
			rec = recs[i]
		}
		wg.Add(1)
		go func(c *wireClient, rec *recorder) {
			defer wg.Done()
			local := &report{}
			w := newWindow()
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
				t0 := time.Now()
				kind := c.pick()
				c.run(kind, local, rec, w.ops)
				w.record(kind, time.Since(t0))
			}
			mu.Lock()
			defer mu.Unlock()
			out.merge(w)
			rep.merge(local)
		}(c, rec)
	}
	wg.Wait()
	out.elapsed, out.procCPU = time.Since(start), processCPU()-c0
	return out
}

func runWire(o options) (*report, error) {
	rep := &report{env: map[string]any{
		"sf": tpchSF, "conns": wireConns, "routines": "all", "durability": "none",
		"mix": "40% kv_get, 20% adhoc_get, 10% order_get, 30% payment", "tail": "p99",
	}}
	setups := wireSetups
	if o.trace {
		setups = 1
	}
	sys, setupCPU, setupWall, err := repeatSetup(setups, func() (*wireSystem, error) { return setupWire(o.seed) }, (*wireSystem).close)
	if err != nil {
		return nil, err
	}
	defer sys.close()
	rep.env["workers"] = sys.db.Workers()
	rep.env["pool_pages"] = sys.db.Pool().Capacity()
	if o.trace {
		return tracedWire(o, rep, sys)
	}

	heap := liveHeapMB()
	w := sys.drive(rep, o.window, nil)
	w.cpu = sys.calibrate(rep)
	if err := checkWire(rep, sys.db); err != nil {
		return nil, err
	}
	m, err := endToEndMetrics(w)
	if err != nil {
		return nil, err
	}
	f, err := wallFigures("wire", w)
	if err != nil {
		return nil, err
	}
	m["setup_s"], m["live_heap_mb"] = setupCPU, heap
	rep.metrics = m
	for _, k := range wireKinds {
		rep.detailf("%s_p50_ms %.4f ms (%d samples)", k.name, median(ms(w.wall[k.name])), len(w.wall[k.name]))
	}
	rep.detailf("ops_s %.1f ops/s, p50_ms %.4f ms, p99_ms %.4f ms over %d ops", f["ops_s"], f["p50_ms"], f["tail_ms"], w.ops)
	rep.detailf("cpu_ms_per_op %.4f ms, op_cpu_geomean_ms %.4f ms", m["cpu_ms_per_op"], m["op_cpu_geomean_ms"])
	rep.detailf("median CPU ms per op by type: %s", w.cpuByType())
	rep.detailf("setup %.3f s wall, %.3f s CPU (median of %d)", setupWall, setupCPU, setups)
	rep.detailf("error_ratio %g (%d of %d)", ratio(float64(rep.failed), float64(rep.attempted)), rep.failed, rep.attempted)
	return rep, nil
}

// tracedWire measures an untraced window and then a traced one, in which
// every op is a span with one child span per client call. Parse and plan
// run inside the server, out of the client's reach, so they are timed
// afterwards on the same ad-hoc texts, in process, as spans of their own.
func tracedWire(o options, rep *report, sys *wireSystem) (*report, error) {
	half := o.window / 2
	u := sys.drive(rep, half, nil)
	epoch := time.Now()
	var recs []*recorder
	for range sys.clients {
		recs = append(recs, newRecorder(epoch))
	}
	before := readCounters(sys.db, nil)
	t := sys.drive(rep, half, recs)
	after := readCounters(sys.db, nil)
	if err := checkWire(rep, sys.db); err != nil {
		return nil, err
	}
	m := newLayerMetrics()
	addWindowLayers(m, before, after, t.ops)
	if err := addWallLayers(m, "wire", u); err != nil {
		return nil, err
	}
	m["trace.overhead_pct"] = overheadPct(u, t)
	for _, k := range wireKinds {
		m["wire."+k.name+"_p50_ms"] = median(ms(u.wall[k.name]))
	}
	var callSum time.Duration
	var calls int
	for _, r := range recs {
		for _, s := range r.spans {
			if s.Parent >= 0 {
				callSum += s.End - s.Start
				calls++
			}
		}
	}
	m["client.call_mean_us"] = ratio(float64(callSum)/1e3, float64(calls))
	hb, ha := before.snap.Histograms["server.request.latency"], after.snap.Histograms["server.request.latency"]
	m["server.request_mean_us"] = ratio(float64(ha.Sum-hb.Sum)/1e3, float64(ha.Count-hb.Count))
	m["wire.overhead_us"] = m["client.call_mean_us"] - m["server.request_mean_us"]

	prec := newRecorder(time.Now())
	rng := rand.New(rand.NewSource(o.seed))
	const planOps = 500
	var parse, plan time.Duration
	for i := int64(0); i < planOps; i++ {
		text := fmt.Sprintf("select p_name, p_retailprice from part where p_partkey = %d", 1+rng.Intn(len(sys.parts)))
		root := prec.begin("plan.adhoc_get", i, -1)
		s := prec.begin("sql.ParseSelect", i, root)
		_, perr := sql.ParseSelect(text)
		prec.end(s)
		parse += prec.spans[s].End - prec.spans[s].Start
		s = prec.begin("DB.PlanQuery", i, root)
		_, plerr := sys.db.PlanQuery(text)
		prec.end(s)
		plan += prec.spans[s].End - prec.spans[s].Start
		prec.end(root)
		if err := errors.Join(perr, plerr); err != nil {
			return nil, fmt.Errorf("planning %q: %w", text, err)
		}
	}
	m["sql.parse_us"] = float64(parse) / 1e3 / planOps
	m["plan.plan_us"] = float64(plan-parse) / 1e3 / planOps
	rep.metrics = m
	rep.detailf("untraced window %d ops in %v; traced window %d ops in %v",
		u.ops, u.elapsed.Round(time.Millisecond), t.ops, t.elapsed.Round(time.Millisecond))
	if err := writeSpans(spansPath(o), append(recs, prec)); err != nil {
		return nil, err
	}
	return rep, nil
}
