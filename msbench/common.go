package main

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"microspec/internal/engine"
	"microspec/internal/metrics"
)

// repeatSetup builds the system under test n times, releasing every
// build but the last, and returns the last build with the median CPU
// time of a build and the median wall time, both in seconds. Setting up
// more than once makes the figures medians rather than one sample of a
// noisy host.
func repeatSetup[T any](n int, build func() (T, error), release func(T)) (sys T, cpuS, wallS float64, err error) {
	var cpus, walls []float64
	for i := 0; i < n; i++ {
		if i > 0 {
			release(sys)
			runtime.GC()
		}
		start, c0 := time.Now(), processCPU()
		next, err := build()
		if err != nil {
			return sys, 0, 0, fmt.Errorf("setup: %w", err)
		}
		cpus = append(cpus, (processCPU() - c0).Seconds())
		walls = append(walls, time.Since(start).Seconds())
		sys = next
	}
	return sys, median(cpus), median(walls), nil
}

// liveHeapMB collects garbage and returns the live heap in MB. Callers
// go on to use the system under test, so it is reachable here and the
// figure counts its data, caches and plans.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// latencies records op latencies by op type.
type latencies map[string][]time.Duration

func (l latencies) add(kind string, d time.Duration) { l[kind] = append(l[kind], d) }

// addAll folds other into l.
func (l latencies) addAll(other latencies) {
	for k, v := range other {
		l[k] = append(l[k], v...)
	}
}

// all returns every latency regardless of type.
func (l latencies) all() []time.Duration {
	var out []time.Duration
	for _, v := range l {
		out = append(out, v...)
	}
	return out
}

// typeGeomean is the geometric mean over op types of each type's median,
// in milliseconds.
func (l latencies) typeGeomean() (float64, error) {
	var meds []float64
	for _, v := range l {
		meds = append(meds, median(ms(v)))
	}
	return geomean(meds)
}

// window is what the clients did in one measured window.
type window struct {
	// wall is each op's wall time by op type.
	wall latencies
	// cpu holds CPU-time samples per op by op type: the client thread's
	// CPU per query or transaction on tpch and tpcc, the process CPU per
	// op of one-kind batches on wire (see wireSystem.calibrate).
	cpu     latencies
	ops     int64
	elapsed time.Duration
	// procCPU is the CPU time of the whole process over the window:
	// clients, engine, server, log writer and garbage collector.
	procCPU time.Duration
}

func newWindow() *window { return &window{wall: latencies{}, cpu: latencies{}} }

// record adds one op's wall time.
func (w *window) record(kind string, wall time.Duration) {
	w.wall.add(kind, wall)
	w.ops++
}

// merge folds a client's window into w.
func (w *window) merge(c *window) {
	w.wall.addAll(c.wall)
	w.cpu.addAll(c.cpu)
	w.ops += c.ops
}

// cpuPerOpMs is the process CPU time per op, in milliseconds.
func (w *window) cpuPerOpMs() float64 {
	return ratio(float64(w.procCPU)/1e6, float64(w.ops))
}

// endToEndMetrics computes the gated metrics of a window. They count
// CPU time rather than wall time, which a host's other guests disturb
// far less (see endToEnd).
func endToEndMetrics(w *window) (map[string]float64, error) {
	gm, err := w.cpu.typeGeomean()
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"cpu_ms_per_op":     w.cpuPerOpMs(),
		"op_cpu_geomean_ms": gm,
	}, nil
}

// cpuByType formats each op type's median CPU time per op, in
// milliseconds, for the log.
func (w *window) cpuByType() string {
	kinds := make([]string, 0, len(w.cpu))
	for k := range w.cpu {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	var b strings.Builder
	for _, k := range kinds {
		fmt.Fprintf(&b, " %s=%.4f", k, median(ms(w.cpu[k])))
	}
	return strings.TrimSpace(b.String())
}

// wallFigures are what a client saw, by wall clock: throughput over the
// window, the median and tail op latency, and the geometric mean of the
// per-type medians.
func wallFigures(workload string, w *window) (map[string]float64, error) {
	all := ms(w.wall.all())
	tail, err := percentile(all, tailQuantile[workload])
	if err != nil {
		return nil, fmt.Errorf("%s window too short: %w", workload, err)
	}
	gm, err := w.wall.typeGeomean()
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"ops_s":      float64(w.ops) / w.elapsed.Seconds(),
		"p50_ms":     median(all),
		"tail_ms":    tail,
		"geomean_ms": gm,
	}, nil
}

// addWallLayers copies the wall-clock figures of the traced run's
// untraced window into the per-layer metrics.
func addWallLayers(m map[string]float64, workload string, w *window) error {
	f, err := wallFigures(workload, w)
	if err != nil {
		return err
	}
	for k, v := range f {
		m["wall."+k] = v
	}
	return nil
}

// counters is the subset of the engine's metrics the per-layer figures
// are deltas of, read at the edges of a measured window.
type counters struct {
	snap metrics.Snapshot
	// walBytes is the log's durable end LSN (0 without a log).
	walBytes int64
}

func readCounters(db *engine.DB, logEnd func() uint64) counters {
	c := counters{snap: db.MetricsSnapshot()}
	if logEnd != nil {
		c.walBytes = int64(logEnd())
	}
	return c
}

func (c counters) counter(name string) float64 { return float64(c.snap.Counters[name]) }

// newLayerMetrics returns every per-layer metric set to 0; a workload
// fills in what it measures, so a layer it does not use reads 0.
func newLayerMetrics() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.Name] = 0
	}
	return m
}

// addWindowLayers sets the per-op storage, log, transaction, index and
// bee-module metrics from counter deltas over a window of ops.
func addWindowLayers(m map[string]float64, before, after counters, ops int64) {
	d := func(name string) float64 { return after.counter(name) - before.counter(name) }
	per := func(name string) float64 { return ratio(d(name), float64(ops)) }
	hits, misses := d("buffer.hits"), d("buffer.misses")
	m["buffer.hit_ratio"] = ratio(hits, hits+misses)
	m["buffer.misses_per_op"] = per("buffer.misses")
	m["buffer.write_backs_per_op"] = per("buffer.write_backs")
	m["disk.page_reads_per_op"] = per("disk.page_reads")
	m["disk.page_writes_per_op"] = per("disk.page_writes")
	m["disk.sim_io_ms_per_op"] = per("disk.sim_io_ns") / 1e6
	m["wal.appends_per_op"] = per("wal.appends")
	m["wal.bytes_per_op"] = ratio(float64(after.walBytes-before.walBytes), float64(ops))
	m["wal.syncs_per_commit"] = ratio(d("wal.fsyncs"), d("wal.commits"))
	m["wal.waits_per_op"] = per("group_commit.sync_waits")
	m["wal.flush_stalls_per_op"] = per("wal.flush_stalls")
	m["txn.conflicts_per_op"] = per("txn.conflicts")
	m["txn.aborted_per_op"] = per("txn.aborted")
	m["engine.vacuum_runs_per_1k_op"] = 1000 * per("vacuum.runs")
	m["engine.vacuum_reclaimed_per_op"] = per("vacuum.reclaimed")
	m["engine.prepared_replans"] = d("prepared.replans")
	m["engine.txn_bee_fallbacks"] = d("txn_bee.fallbacks")
	m["btree.searches_per_op"] = per("index.searches")
	m["btree.splits_per_op"] = per("index.splits")
	for _, r := range []string{"gcl", "evp", "evj", "eva", "scl"} {
		m["core.calls."+r] = per("bees.calls." + r)
	}
	m["core.dict_probes_per_op"] = per("bees.dict_probes")
	m["core.cache_kb"] = float64(after.snap.Gauges["beecache.mem_bytes"]) / 1024
	m["plan.bees_compiled"] = float64(after.snap.Gauges["bees.query"] - before.snap.Gauges["bees.query"])
}

// overheadPct is how much more CPU an op cost in the traced window than
// in the untraced one, in percent.
func overheadPct(untraced, traced *window) float64 {
	return 100 * (ratio(traced.cpuPerOpMs(), untraced.cpuPerOpMs()) - 1)
}

// spansPath is where a traced run writes its spans; each traced run of a
// workload replaces the previous run's file.
func spansPath(o options) string {
	return fmt.Sprintf(".bench_build/spans/%s.jsonl", o.workload)
}
