package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"time"

	"microspec/internal/core"
	"microspec/internal/engine"
	"microspec/internal/expr"
	"microspec/internal/profile"
	"microspec/internal/sql"
	"microspec/internal/tpch"
)

// The tpch workload is the paper's: ad-hoc SQL text for the 22 queries,
// one client, no writes. Bees, executor operators and the allocator do
// its work; the WAL, B+trees and wire are idle, so a change to those
// layers must leave it unchanged.
const (
	tpchSF     = 0.01
	tpchSetups = 3
)

func tpchConfig(rs core.RoutineSet) engine.Config {
	// One worker: each query runs serially, so a pass is a single
	// thread's work and its allocation and instruction counts repeat.
	// The default pool holds every data page.
	return engine.Config{Routines: rs, Workers: 1}
}

// tpchQuery is one query text and its expected result, canonicalised.
type tpchQuery struct {
	num  int
	text string
	want []expr.Row
}

// tpchOracle computes every query's result once on a stock engine (no
// bees), the reference each bee-engine execution is compared with. It
// returns the stock database too, for the traced run's attribution pass.
func tpchOracle() ([]tpchQuery, *engine.DB, error) {
	db, err := tpch.NewDatabase(tpchConfig(core.Stock), tpchSF)
	if err != nil {
		return nil, nil, fmt.Errorf("stock load: %w", err)
	}
	texts := tpch.Queries()
	var qs []tpchQuery
	for _, n := range tpch.QueryNumbers() {
		res, err := db.Query(texts[n])
		if err != nil {
			return nil, nil, fmt.Errorf("stock Q%d: %w", n, err)
		}
		qs = append(qs, tpchQuery{num: n, text: texts[n], want: canonical(res.Rows)})
	}
	return qs, db, nil
}

// tpchClient runs passes over the queries and checks every result. It
// runs on one goroutine locked to its thread; with one worker a query
// runs on that thread, so the thread's CPU time is the query's work.
type tpchClient struct {
	db  *engine.DB
	qs  []tpchQuery
	rng *rand.Rand
	rep *report
}

// check compares one execution's result with the oracle.
func (c *tpchClient) check(q tpchQuery, res *engine.Result, err error) {
	c.rep.attempted++
	if err == nil {
		err = sameRows(res.Rows, q.want)
	}
	if err != nil {
		c.rep.fail("Q%d: %v", q.num, err)
	}
}

// passes runs whole passes, each over a fresh seeded permutation of the
// queries, until the window has elapsed and the run holds at least
// minOps queries. runOne runs a query and returns its wall time and the
// client thread's CPU time. passes also returns each pass's wall time in seconds.
func (c *tpchClient) passes(window time.Duration, minOps int64, runOne func(q tpchQuery) (wall, cpu time.Duration)) (*window, []float64) {
	w := newWindow()
	var passTimes []float64
	start, c0 := time.Now(), processCPU()
	for time.Since(start) < window || w.ops < minOps {
		var pass time.Duration
		for _, i := range c.rng.Perm(len(c.qs)) {
			q := c.qs[i]
			wall, cpu := runOne(q)
			k := fmt.Sprintf("Q%d", q.num)
			w.record(k, wall)
			w.cpu.add(k, cpu)
			pass += wall
		}
		passTimes = append(passTimes, pass.Seconds())
	}
	w.elapsed, w.procCPU = time.Since(start), processCPU()-c0
	return w, passTimes
}

// query is the untraced op: one Query call, timed, then checked.
func (c *tpchClient) query(q tpchQuery) (time.Duration, time.Duration) {
	start, c0 := time.Now(), threadCPU()
	res, err := c.db.Query(q.text)
	wall, cpu := time.Since(start), threadCPU()-c0
	c.check(q, res, err)
	return wall, cpu
}

func runTPCH(o options) (*report, error) {
	rep := &report{env: map[string]any{
		"sf": tpchSF, "routines": "all", "batch": true,
		"durability": "none", "tail": "p95",
	}}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	qs, stock, err := tpchOracle()
	if err != nil {
		return nil, err
	}
	setups := tpchSetups
	if o.trace {
		setups = 1
	}
	db, setupCPU, setupWall, err := repeatSetup(setups,
		func() (*engine.DB, error) {
			db, err := tpch.NewDatabase(tpchConfig(core.AllRoutines), tpchSF)
			if err != nil {
				return nil, err
			}
			// Warm-up pass: bees compile at first use.
			for _, q := range qs {
				if _, err := db.Query(q.text); err != nil {
					return nil, fmt.Errorf("warm-up Q%d: %w", q.num, err)
				}
			}
			return db, nil
		},
		func(*engine.DB) {})
	if err != nil {
		return nil, err
	}
	rep.env["workers"] = db.Workers()
	rep.env["pool_pages"] = db.Pool().Capacity()
	rep.env["data_pages"] = db.TotalPages()
	c := &tpchClient{db: db, qs: qs, rng: rand.New(rand.NewSource(o.seed)), rep: rep}
	if o.trace {
		return tracedTPCH(o, c, stock)
	}

	stock = nil // the oracle's rows are all the run still needs
	heap := liveHeapMB()
	w, passTimes := c.passes(o.window, int64(minSamples(tailQuantile["tpch"])), c.query)
	m, err := endToEndMetrics(w)
	if err != nil {
		return nil, err
	}
	f, err := wallFigures("tpch", w)
	if err != nil {
		return nil, err
	}
	m["setup_s"], m["live_heap_mb"] = setupCPU, heap
	rep.metrics = m
	rep.detailf("query_geomean_ms %.3f ms wall, %.3f ms CPU (geomean of each query's median over %d passes)",
		f["geomean_ms"], m["op_cpu_geomean_ms"], len(passTimes))
	rep.detailf("pass_s %.4f s (median of %d passes)", median(passTimes), len(passTimes))
	rep.detailf("ops_s %.3f queries/s, p50_ms %.3f ms, p95_ms %.3f ms over %d queries; %.3f ms CPU per query",
		f["ops_s"], f["p50_ms"], f["tail_ms"], w.ops, m["cpu_ms_per_op"])
	rep.detailf("median CPU ms per op by type: %s", w.cpuByType())
	rep.detailf("setup %.3f s wall, %.3f s CPU (median of %d)", setupWall, setupCPU, setups)
	rep.detailf("error_ratio %g (%d of %d)", ratio(float64(rep.failed), float64(rep.attempted)), rep.failed, rep.attempted)
	return rep, nil
}

// tracedTPCH measures an untraced window, then a traced window of the
// same length in which each query runs as parse, plan and an analyzed
// execution whose operator tree becomes child spans. Deterministic
// passes in a fixed order then count instructions, bee calls and
// allocations, on the bee engine and (for attribution) the stock one.
func tracedTPCH(o options, c *tpchClient, stock *engine.DB) (*report, error) {
	rep, db := c.rep, c.db
	half := o.window / 2
	untraced, _ := c.passes(half, int64(minSamples(tailQuantile["tpch"])), c.query)

	rec := newRecorder(time.Now())
	var op int64
	before := readCounters(db, nil)
	traced, _ := c.passes(half, 0, func(q tpchQuery) (time.Duration, time.Duration) {
		op++
		return c.tracedQuery(rec, op, q)
	})
	after := readCounters(db, nil)

	m := newLayerMetrics()
	addWindowLayers(m, before, after, traced.ops)
	if err := addWallLayers(m, "tpch", untraced); err != nil {
		return nil, err
	}
	m["trace.overhead_pct"] = overheadPct(untraced, traced)
	selfs := selfTimes(rec.spans)
	nPasses := float64(traced.ops) / float64(len(c.qs))
	var parse, plan, n time.Duration
	planLats := latencies{}
	for _, s := range rec.spans {
		switch s.Name {
		case "sql.ParseSelect":
			parse += s.End - s.Start
			n++
		case "DB.PlanQuery":
			plan += s.End - s.Start
			planLats.add(strings.TrimPrefix(rec.spans[s.Parent].Name, "query."), s.End-s.Start)
		}
	}
	m["sql.parse_us"] = float64(parse/n) / 1e3
	m["plan.plan_us"] = float64((plan-parse)/n) / 1e3
	for name, d := range selfs {
		if node, ok := strings.CutPrefix(name, "exec."); ok {
			key := "exec.self_ms." + node
			if _, known := m[key]; !known {
				key = "exec.self_ms.other"
			}
			m[key] += float64(d) / 1e6 / nPasses
		}
	}
	// exec.exec_ms: per pass, each query's untraced median latency minus
	// its median planning (parse included) time.
	for k, v := range untraced.wall {
		m["exec.exec_ms"] += median(ms(v)) - median(ms(planLats[k]))
	}

	det, err := tpchCounts(db, c.qs)
	if err != nil {
		return nil, err
	}
	stockDet, err := tpchCounts(stock, c.qs)
	if err != nil {
		return nil, err
	}
	for name, v := range det.layers() {
		m[name] = v
	}
	for _, comp := range []string{"deform", "expr", "join", "exec", "total"} {
		m["profile.stock_over_bee."+comp] = ratio(float64(stockDet.instr[comp]), float64(det.instr[comp]))
	}
	rep.metrics = m

	var selfSum time.Duration
	for _, d := range selfs {
		selfSum += d
	}
	rep.detailf("traced window: %d queries in %v; span self times sum to %.2f%% of the window's wall time",
		traced.ops, traced.elapsed.Round(time.Millisecond), 100*float64(selfSum)/float64(traced.elapsed))
	rep.detailf("untraced window: %d queries, typical pass %.3f s; traced typical pass %.3f s",
		untraced.ops, sumMedians(untraced.wall), sumMedians(traced.wall))
	if err := writeSpans(spansPath(o), []*recorder{rec}); err != nil {
		return nil, err
	}
	return rep, nil
}

// sumMedians adds up each query's median latency in seconds: the
// typical pass time.
func sumMedians(l latencies) float64 {
	var s float64
	for _, v := range l {
		s += median(ms(v)) / 1e3
	}
	return s
}

// tracedQuery runs one query as the three calls a traced pass spans:
// parse, plan, and an analyzed execution whose operator tree is
// recorded as children of the execution span.
func (c *tpchClient) tracedQuery(rec *recorder, op int64, q tpchQuery) (time.Duration, time.Duration) {
	c0 := threadCPU()
	root := rec.begin(fmt.Sprintf("query.Q%d", q.num), op, -1)
	s := rec.begin("sql.ParseSelect", op, root)
	_, perr := sql.ParseSelect(q.text)
	rec.end(s)
	s = rec.begin("DB.PlanQuery", op, root)
	_, plerr := c.db.PlanQuery(q.text)
	rec.end(s)
	s = rec.begin("DB.ExplainAnalyzeQuery", op, root)
	outline, res, err := c.db.ExplainAnalyzeQuery(q.text)
	rec.end(s)
	rec.end(root)
	for _, e := range []error{perr, plerr} {
		if err == nil {
			err = e
		}
	}
	if err == nil {
		err = addOperatorSpans(rec, op, s, outline)
	}
	cpu := threadCPU() - c0
	c.check(q, res, err)
	return rec.spans[root].End - rec.spans[root].Start, cpu
}

// addOperatorSpans turns an EXPLAIN ANALYZE outline into child spans of
// the execution span. The outline gives each operator's inclusive time
// but not when it ran (pipelined operators interleave), so each node's
// children are laid end to end from the node's start; self times, which
// depend only on durations, come out right. The root operator ends when
// the execution span does.
func addOperatorSpans(rec *recorder, op int64, parent int, outline string) error {
	type frame struct {
		depth  int
		span   int
		cursor time.Duration
	}
	var stack []frame
	execEnd := rec.spans[parent].End
	for _, line := range strings.Split(strings.TrimRight(outline, "\n"), "\n") {
		trimmed := strings.TrimLeft(line, " ")
		depth := (len(line) - len(trimmed)) / 2
		i := strings.LastIndex(trimmed, "time=")
		if trimmed == "" || strings.HasPrefix(trimmed, "trace:") || i < 0 {
			continue
		}
		msText, ok := strings.CutSuffix(trimmed[i+len("time="):], "ms)")
		if !ok {
			return fmt.Errorf("unparsed outline line %q", line)
		}
		v, err := strconv.ParseFloat(msText, 64)
		if err != nil {
			return fmt.Errorf("unparsed outline line %q: %w", line, err)
		}
		dur := time.Duration(v * 1e6)
		node, _, _ := strings.Cut(trimmed, " ")
		for len(stack) > 0 && stack[len(stack)-1].depth >= depth {
			stack = stack[:len(stack)-1]
		}
		p, start := parent, execEnd-dur
		if len(stack) > 0 {
			top := &stack[len(stack)-1]
			p, start = top.span, top.cursor
			top.cursor += dur
		}
		id := rec.add("exec."+node, op, p, start, start+dur)
		stack = append(stack, frame{depth: depth, span: id, cursor: start})
	}
	return nil
}

// tpchDeterministic are the counts of one pass in a fixed query order on
// a single worker, which repeat exactly from run to run.
type tpchDeterministic struct {
	instr            map[string]int64
	calls            map[string]int64
	allocs, allocMiB float64
}

// tpchCounts runs two passes in query-number order: one profiled, for
// instruction and bee-call counts, and one plain, for allocations.
func tpchCounts(db *engine.DB, qs []tpchQuery) (tpchDeterministic, error) {
	det := tpchDeterministic{instr: map[string]int64{}, calls: map[string]int64{}}
	prof := &profile.Counters{}
	before := db.Module().Stats()
	for _, q := range qs {
		if _, err := db.QueryProfiled(q.text, prof); err != nil {
			return det, fmt.Errorf("profiled Q%d: %w", q.num, err)
		}
	}
	after := db.Module().Stats()
	for _, comp := range []profile.Component{profile.CompDeform, profile.CompFill, profile.CompExpr,
		profile.CompJoin, profile.CompExec, profile.CompStorage, profile.CompBee} {
		det.instr[comp.String()] = prof.Component(comp)
	}
	det.instr["total"] = prof.Total()
	det.calls["gcl"] = after.GCLCalls - before.GCLCalls
	det.calls["evp"] = after.EVPCalls - before.EVPCalls
	det.calls["evj"] = after.EVJCalls - before.EVJCalls
	det.calls["eva"] = after.EVACalls - before.EVACalls
	det.calls["scl"] = after.SCLCalls - before.SCLCalls

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, q := range qs {
		if _, err := db.Query(q.text); err != nil {
			return det, fmt.Errorf("Q%d: %w", q.num, err)
		}
	}
	runtime.ReadMemStats(&m1)
	det.allocs = float64(m1.Mallocs - m0.Mallocs)
	det.allocMiB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
	return det, nil
}

// layers maps the deterministic counts onto their per-layer metrics.
func (d tpchDeterministic) layers() map[string]float64 {
	m := map[string]float64{
		"exec.allocs_per_pass":   d.allocs,
		"exec.alloc_mb_per_pass": d.allocMiB,
	}
	for k, v := range d.instr {
		m["profile.instr."+k] = float64(v)
	}
	for k, v := range d.calls {
		m["core.calls."+k] = float64(v)
	}
	return m
}
