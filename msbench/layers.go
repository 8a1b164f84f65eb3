package main

// metricDef is one reported metric. For a per-layer metric, Moves names
// the end-to-end metric it should move and On the workload where it
// should move it; Still names the workloads on which it should stay put.
// BENCHMARK.json lists the same names, units and directions (the
// package's tests hold the two together).
type metricDef struct {
	Name, Unit, Better string
	Bound              float64 // end-to-end only: allowed share of worsening
	Module             string  // per-layer only: the engine module measured
	Moves, On, Still   string
}

// The end-to-end metrics are reported on every workload, so each has a
// definition that means the same thing on all three: an op is one query
// on tpch, one transaction on tpcc and one client operation (a Payment's
// four statements count as one) on wire. They are measured with tracing
// off, and they count CPU time, not wall time: on a 2-vCPU virtual
// machine whose host also ran other guests (10-45% CPU steal), wall-clock
// rates moved by a fifth or more between minutes while the CPU an op
// cost moved by a few percent. The wall-clock figures (ops/s, median and
// tail latency, tpmC, pass time) are printed beside them and reported by
// the traced run as wall.*.
var endToEnd = []metricDef{
	// setup_s is the median CPU time of a set-up: open, load, warm-up
	// and, for wire, table seeding, up to the first timed op.
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	// live_heap_mb is the live Go heap of the set-up system after a
	// collection: data, bee cache, dictionaries and plans.
	{Name: "live_heap_mb", Unit: "MB", Better: "lower", Bound: 0.05},
	// cpu_ms_per_op is the CPU time of the whole process (clients,
	// engine, server, log writer, collector) over the window, per op.
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: 0.25},
	// op_cpu_geomean_ms is the geometric mean over op types of each
	// type's median CPU time per op: on tpch and tpcc the CPU time of the
	// client thread that ran the query or transaction; on wire, where the
	// work runs on the server's threads, the process CPU per op of
	// batches of one kind run by both clients after the window.
	{Name: "op_cpu_geomean_ms", Unit: "ms", Better: "lower", Bound: 0.25},
}

// tailQuantile is the percentile wall.tail_ms reports per workload: the
// highest of p99/p95 that a run leaves at least minBeyond samples beyond.
// A tpch run completes a few hundred queries, too few for p99.
var tailQuantile = map[string]float64{"tpch": 0.95, "tpcc": 0.99, "wire": 0.99}

// Per-layer metrics come from the traced run. A count "per op" is a
// delta over the measured window divided by the ops completed in it; on
// tpch the core and profile counts are per 22-query pass instead, taken
// from one pass in a fixed order so that they repeat exactly.
var perLayer = []metricDef{
	{Name: "sql.parse_us", Unit: "us", Better: "lower", Module: "sql", Moves: "cpu_ms_per_op, op_cpu_geomean_ms", On: "wire", Still: "tpch"},
	{Name: "plan.plan_us", Unit: "us", Better: "lower", Module: "plan", Moves: "cpu_ms_per_op, op_cpu_geomean_ms", On: "wire", Still: "tpch"},
	{Name: "plan.bees_compiled", Unit: "count", Better: "lower", Module: "plan", Moves: "cpu_ms_per_op, op_cpu_geomean_ms", On: "wire", Still: "tpch"},

	{Name: "core.calls.gcl", Unit: "count", Better: "higher", Module: "core", Moves: "op_cpu_geomean_ms", On: "tpch", Still: "tpcc, wire"},
	{Name: "core.calls.evp", Unit: "count", Better: "higher", Module: "core", Moves: "op_cpu_geomean_ms", On: "tpch", Still: "tpcc, wire"},
	{Name: "core.calls.evj", Unit: "count", Better: "higher", Module: "core", Moves: "cpu_ms_per_op", On: "tpch", Still: "tpcc, wire"},
	{Name: "core.calls.eva", Unit: "count", Better: "higher", Module: "core", Moves: "op_cpu_geomean_ms", On: "tpch", Still: "tpcc, wire"},
	{Name: "core.calls.scl", Unit: "count", Better: "higher", Module: "core", Moves: "cpu_ms_per_op", On: "tpcc", Still: "tpch"},
	{Name: "core.dict_probes_per_op", Unit: "count", Better: "lower", Module: "core", Moves: "op_cpu_geomean_ms", On: "tpch", Still: "tpcc, wire"},
	{Name: "core.cache_kb", Unit: "KiB", Better: "lower", Module: "core", Moves: "live_heap_mb", On: "tpch", Still: "tpcc, wire"},

	{Name: "profile.instr.deform", Unit: "count", Better: "lower", Module: "profile", Moves: "op_cpu_geomean_ms", On: "tpch"},
	{Name: "profile.instr.fill", Unit: "count", Better: "lower", Module: "profile", Moves: "op_cpu_geomean_ms", On: "tpch"},
	{Name: "profile.instr.expr", Unit: "count", Better: "lower", Module: "profile", Moves: "op_cpu_geomean_ms", On: "tpch"},
	{Name: "profile.instr.join", Unit: "count", Better: "lower", Module: "profile", Moves: "cpu_ms_per_op", On: "tpch"},
	{Name: "profile.instr.exec", Unit: "count", Better: "lower", Module: "profile", Moves: "cpu_ms_per_op", On: "tpch"},
	{Name: "profile.instr.storage", Unit: "count", Better: "lower", Module: "profile", Moves: "cpu_ms_per_op", On: "tpch"},
	{Name: "profile.instr.bee", Unit: "count", Better: "lower", Module: "profile", Moves: "op_cpu_geomean_ms", On: "tpch"},
	{Name: "profile.instr.total", Unit: "count", Better: "lower", Module: "profile", Moves: "op_cpu_geomean_ms, cpu_ms_per_op", On: "tpch"},
	{Name: "profile.stock_over_bee.deform", Unit: "ratio", Better: "higher", Module: "profile", Moves: "op_cpu_geomean_ms", On: "tpch"},
	{Name: "profile.stock_over_bee.expr", Unit: "ratio", Better: "higher", Module: "profile", Moves: "op_cpu_geomean_ms", On: "tpch"},
	{Name: "profile.stock_over_bee.join", Unit: "ratio", Better: "higher", Module: "profile", Moves: "cpu_ms_per_op", On: "tpch"},
	{Name: "profile.stock_over_bee.exec", Unit: "ratio", Better: "higher", Module: "profile", Moves: "cpu_ms_per_op", On: "tpch"},
	{Name: "profile.stock_over_bee.total", Unit: "ratio", Better: "higher", Module: "profile", Moves: "op_cpu_geomean_ms, cpu_ms_per_op", On: "tpch"},

	{Name: "exec.exec_ms", Unit: "ms", Better: "lower", Module: "exec", Moves: "cpu_ms_per_op, op_cpu_geomean_ms", On: "tpch", Still: "tpcc, wire"},
	{Name: "exec.self_ms.HashJoin", Unit: "ms", Better: "lower", Module: "exec", Moves: "cpu_ms_per_op", On: "tpch", Still: "tpcc, wire"},
	{Name: "exec.self_ms.NestedLoopJoin", Unit: "ms", Better: "lower", Module: "exec", Moves: "cpu_ms_per_op", On: "tpch", Still: "tpcc, wire"},
	{Name: "exec.self_ms.BatchSeqScan", Unit: "ms", Better: "lower", Module: "exec", Moves: "op_cpu_geomean_ms", On: "tpch", Still: "tpcc, wire"},
	{Name: "exec.self_ms.SeqScan", Unit: "ms", Better: "lower", Module: "exec", Moves: "op_cpu_geomean_ms", On: "tpch", Still: "tpcc, wire"},
	{Name: "exec.self_ms.IndexScan", Unit: "ms", Better: "lower", Module: "exec", Moves: "op_cpu_geomean_ms", On: "tpch", Still: "tpcc, wire"},
	{Name: "exec.self_ms.BatchFilter", Unit: "ms", Better: "lower", Module: "exec", Moves: "op_cpu_geomean_ms", On: "tpch", Still: "tpcc, wire"},
	{Name: "exec.self_ms.Filter", Unit: "ms", Better: "lower", Module: "exec", Moves: "op_cpu_geomean_ms", On: "tpch", Still: "tpcc, wire"},
	{Name: "exec.self_ms.HashAgg", Unit: "ms", Better: "lower", Module: "exec", Moves: "op_cpu_geomean_ms", On: "tpch", Still: "tpcc, wire"},
	{Name: "exec.self_ms.BatchHashAgg", Unit: "ms", Better: "lower", Module: "exec", Moves: "op_cpu_geomean_ms", On: "tpch", Still: "tpcc, wire"},
	{Name: "exec.self_ms.Sort", Unit: "ms", Better: "lower", Module: "exec", Moves: "cpu_ms_per_op", On: "tpch", Still: "tpcc, wire"},
	{Name: "exec.self_ms.Rebatch", Unit: "ms", Better: "lower", Module: "exec", Moves: "op_cpu_geomean_ms", On: "tpch", Still: "tpcc, wire"},
	{Name: "exec.self_ms.Project", Unit: "ms", Better: "lower", Module: "exec", Moves: "op_cpu_geomean_ms", On: "tpch", Still: "tpcc, wire"},
	{Name: "exec.self_ms.Materialize", Unit: "ms", Better: "lower", Module: "exec", Moves: "cpu_ms_per_op", On: "tpch", Still: "tpcc, wire"},
	{Name: "exec.self_ms.other", Unit: "ms", Better: "lower", Module: "exec", Moves: "cpu_ms_per_op", On: "tpch", Still: "tpcc, wire"},
	{Name: "exec.allocs_per_pass", Unit: "count", Better: "lower", Module: "exec", Moves: "cpu_ms_per_op", On: "tpch", Still: "tpcc, wire"},
	{Name: "exec.alloc_mb_per_pass", Unit: "MB", Better: "lower", Module: "exec", Moves: "cpu_ms_per_op", On: "tpch", Still: "tpcc, wire"},

	{Name: "buffer.hit_ratio", Unit: "ratio", Better: "higher", Module: "storage/buffer", Moves: "cpu_ms_per_op, wall.ops_s", On: "tpcc", Still: "tpch"},
	{Name: "buffer.misses_per_op", Unit: "count", Better: "lower", Module: "storage/buffer", Moves: "cpu_ms_per_op, wall.ops_s", On: "tpcc", Still: "tpch"},
	{Name: "buffer.write_backs_per_op", Unit: "count", Better: "lower", Module: "storage/buffer", Moves: "cpu_ms_per_op, wall.ops_s", On: "tpcc", Still: "tpch"},

	{Name: "disk.page_reads_per_op", Unit: "count", Better: "lower", Module: "storage/disk", Moves: "cpu_ms_per_op, wall.ops_s", On: "tpcc", Still: "tpch, wire"},
	{Name: "disk.page_writes_per_op", Unit: "count", Better: "lower", Module: "storage/disk", Moves: "cpu_ms_per_op, wall.ops_s", On: "tpcc", Still: "tpch, wire"},
	{Name: "disk.sim_io_ms_per_op", Unit: "ms", Better: "lower", Module: "storage/disk", Moves: "cpu_ms_per_op, wall.ops_s", On: "tpcc", Still: "tpch, wire"},

	{Name: "wal.appends_per_op", Unit: "count", Better: "lower", Module: "storage/wal", Moves: "wall.p50_ms, wall.tail_ms", On: "tpcc", Still: "tpch, wire"},
	{Name: "wal.bytes_per_op", Unit: "bytes", Better: "lower", Module: "storage/wal", Moves: "wall.p50_ms, wall.tail_ms", On: "tpcc", Still: "tpch, wire"},
	{Name: "wal.syncs_per_commit", Unit: "ratio", Better: "lower", Module: "storage/wal", Moves: "wall.p50_ms, wall.tail_ms", On: "tpcc", Still: "tpch, wire"},
	{Name: "wal.waits_per_op", Unit: "count", Better: "lower", Module: "storage/wal", Moves: "wall.p50_ms, wall.tail_ms", On: "tpcc", Still: "tpch, wire"},
	{Name: "wal.flush_stalls_per_op", Unit: "count", Better: "lower", Module: "storage/wal", Moves: "wall.p50_ms, wall.tail_ms", On: "tpcc", Still: "tpch, wire"},

	{Name: "txn.conflicts_per_op", Unit: "count", Better: "lower", Module: "txn, storage/latch", Moves: "wall.tail_ms, cpu_ms_per_op", On: "tpcc, wire", Still: "tpch"},
	{Name: "txn.aborted_per_op", Unit: "count", Better: "lower", Module: "txn, storage/latch", Moves: "wall.tail_ms, cpu_ms_per_op", On: "tpcc, wire", Still: "tpch"},

	{Name: "engine.vacuum_runs_per_1k_op", Unit: "count", Better: "lower", Module: "engine", Moves: "wall.tail_ms, cpu_ms_per_op", On: "tpcc, wire", Still: "tpch"},
	{Name: "engine.vacuum_reclaimed_per_op", Unit: "count", Better: "lower", Module: "engine", Moves: "wall.tail_ms, cpu_ms_per_op", On: "tpcc, wire", Still: "tpch"},
	{Name: "engine.prepared_replans", Unit: "count", Better: "lower", Module: "engine", Moves: "wall.tail_ms, cpu_ms_per_op", On: "wire", Still: "tpch"},
	{Name: "engine.txn_bee_fallbacks", Unit: "count", Better: "lower", Module: "engine", Moves: "wall.tail_ms, cpu_ms_per_op", On: "tpcc", Still: "tpch"},

	{Name: "btree.searches_per_op", Unit: "count", Better: "lower", Module: "index/btree", Moves: "cpu_ms_per_op, op_cpu_geomean_ms", On: "tpcc, wire", Still: "tpch"},
	{Name: "btree.splits_per_op", Unit: "count", Better: "lower", Module: "index/btree", Moves: "cpu_ms_per_op, op_cpu_geomean_ms", On: "tpcc, wire", Still: "tpch"},

	{Name: "wire.kv_get_p50_ms", Unit: "ms", Better: "lower", Module: "server, wire, client", Moves: "cpu_ms_per_op, wall.p50_ms", On: "wire", Still: "tpch, tpcc"},
	{Name: "wire.adhoc_get_p50_ms", Unit: "ms", Better: "lower", Module: "server, wire, client", Moves: "cpu_ms_per_op, wall.p50_ms", On: "wire", Still: "tpch, tpcc"},
	{Name: "wire.order_get_p50_ms", Unit: "ms", Better: "lower", Module: "server, wire, client", Moves: "cpu_ms_per_op, wall.p50_ms", On: "wire", Still: "tpch, tpcc"},
	{Name: "wire.payment_p50_ms", Unit: "ms", Better: "lower", Module: "server, wire, client", Moves: "cpu_ms_per_op, wall.p50_ms", On: "wire", Still: "tpch, tpcc"},
	{Name: "server.request_mean_us", Unit: "us", Better: "lower", Module: "server", Moves: "cpu_ms_per_op, wall.p50_ms", On: "wire", Still: "tpch, tpcc"},
	{Name: "client.call_mean_us", Unit: "us", Better: "lower", Module: "client", Moves: "op_cpu_geomean_ms, wall.p50_ms", On: "wire", Still: "tpch, tpcc"},
	{Name: "wire.overhead_us", Unit: "us", Better: "lower", Module: "wire", Moves: "cpu_ms_per_op, wall.p50_ms", On: "wire", Still: "tpch, tpcc"},

	{Name: "wall.ops_s", Unit: "ops/s", Better: "higher", Module: "benchmark"},
	{Name: "wall.p50_ms", Unit: "ms", Better: "lower", Module: "benchmark"},
	{Name: "wall.tail_ms", Unit: "ms", Better: "lower", Module: "benchmark"},
	{Name: "wall.geomean_ms", Unit: "ms", Better: "lower", Module: "benchmark"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower", Module: "benchmark"},
}
