package exec

import (
	"fmt"
	"sync"
	"time"

	"microspec/internal/expr"
	"microspec/internal/profile"
	"microspec/internal/types"
)

// Gather is the executor's intra-query parallelism node. It owns one
// subplan per heap partition (a page-range batch scan spine) and drives
// them on a bounded worker pool, in the mode the planner set:
//
//   - GatherAgg: each worker aggregates its partition into a local group
//     table (partial aggregation); the gather point merges the partial
//     states in partition order, which reproduces the serial
//     first-appearance group order exactly.
//   - GatherMerge: each partition subplan ends in a Sort; workers sort
//     their runs in parallel and the gather point k-way merges them, so
//     the Gather's output is globally ordered.
//
// Partitions share the serial plan's bees (deform, predicate, fused
// scan-filter, and aggregate-input routines): the compiled closures are
// stateless and their call counters and usage entries are atomic. Each
// worker owns its subplan's runtime state and a private
// profile.Counters, merged at the gather point.
type Gather struct {
	// Parts are the per-partition subplans. Each is driven by exactly one
	// worker at a time and must not share mutable state with its
	// siblings.
	Parts []Node
	// Workers bounds the pool; at most min(Workers, len(Parts))
	// goroutines run concurrently.
	Workers int
	// Mode selects how partition outputs combine.
	Mode GatherMode

	// GroupBy and Aggs mirror the aggregation the GatherAgg node
	// replaces; the pooled EVA invocation count is reported at Close.
	GroupBy []expr.Expr
	Aggs    []AggSpec

	// MergeKeys are the GatherMerge sort keys: every part emits rows
	// sorted by them (the planner roots each part in a Sort, whose
	// materialized rows stay valid across Next calls — required here).
	MergeKeys []SortKey

	cols []ColInfo

	// Runtime state, reset by Open.
	table    *aggTable
	pos      int
	outBuf   expr.Row
	heads    []expr.Row
	opened   []bool
	evaCalls int64

	errMu sync.Mutex
	err   error

	statMu sync.Mutex
	stats  []WorkerStat
}

// GatherMode is how a Gather combines its partitions' output.
type GatherMode uint8

const (
	// GatherAgg merges per-partition aggregation tables.
	GatherAgg GatherMode = iota
	// GatherMerge k-way merges per-partition sorted runs.
	GatherMerge
)

// WorkerStat records one partition's execution on the worker pool, folded
// into the engine's per-worker scan/agg histograms after the query.
type WorkerStat struct {
	Part    int
	Rows    int64
	Elapsed time.Duration
	// Agg is true when the worker performed partial aggregation (vs. a
	// pure scan/sort partition).
	Agg bool
}

// poolSize returns the number of goroutines the pool runs.
func (g *Gather) poolSize() int {
	w := g.Workers
	if w <= 0 || w > len(g.Parts) {
		w = len(g.Parts)
	}
	if w < 1 {
		w = 1
	}
	return w
}

func (g *Gather) setErr(err error) {
	g.errMu.Lock()
	if g.err == nil {
		g.err = err
	}
	g.errMu.Unlock()
}

func (g *Gather) loadErr() error {
	g.errMu.Lock()
	defer g.errMu.Unlock()
	return g.err
}

func (g *Gather) noteStat(s WorkerStat) {
	g.statMu.Lock()
	g.stats = append(g.stats, s)
	g.statMu.Unlock()
}

// WorkerStats returns the per-partition worker statistics of the last
// run (safe to call after the plan is drained or closed).
func (g *Gather) WorkerStats() []WorkerStat {
	g.statMu.Lock()
	defer g.statMu.Unlock()
	out := make([]WorkerStat, len(g.stats))
	copy(out, g.stats)
	return out
}

// runPool feeds part indices to poolSize() workers, each with a private
// Ctx (own profiler), and waits for completion. Worker profilers are
// merged into the parent profiler after the pool drains, so abstract
// instruction counts match the serial plan.
func (g *Gather) runPool(ctx *Ctx, work func(part int, wctx *Ctx) error) {
	n := g.poolSize()
	parts := make(chan int)
	profs := make([]*profile.Counters, n)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		if ctx.Prof() != nil {
			profs[w] = &profile.Counters{}
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wctx := &Ctx{Context: ctx.Context, Expr: expr.Ctx{Prof: profs[w]}, Snap: ctx.Snap}
			for part := range parts {
				if g.loadErr() != nil {
					continue // drain remaining parts after a failure
				}
				if err := runPart(part, wctx, work); err != nil {
					g.setErr(err)
				}
			}
		}(w)
	}
	for i := range g.Parts {
		parts <- i
	}
	close(parts)
	wg.Wait()
	for _, p := range profs {
		ctx.Prof().Merge(p)
	}
}

// runPart executes one partition with a panic-containment boundary: a
// bee or executor panic on a worker goroutine would otherwise kill the
// process (the query goroutine's recover cannot catch it), so it is
// converted here into a *PanicError surfaced like any partition error.
func runPart(part int, wctx *Ctx, work func(part int, wctx *Ctx) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = NewPanicError(r)
		}
	}()
	return work(part, wctx)
}

// Open implements Node. All parallel work happens here: the node is a
// pipeline breaker, like HashAgg and Sort.
func (g *Gather) Open(ctx *Ctx) error {
	g.pos = 0
	g.table = nil
	g.heads = nil
	g.opened = nil
	g.err = nil
	g.evaCalls = 0
	g.statMu.Lock()
	g.stats = g.stats[:0]
	g.statMu.Unlock()

	if g.Mode == GatherMerge {
		return g.openMerge(ctx)
	}
	return g.openAgg(ctx)
}

// openAgg runs partial aggregation on the pool and merges the partition
// tables in partition order.
func (g *Gather) openAgg(ctx *Ctx) error {
	if g.outBuf == nil {
		g.outBuf = make(expr.Row, len(g.GroupBy)+len(g.Aggs))
	}
	partTables := make([]*aggTable, len(g.Parts))
	var evaTotal int64
	var evaMu sync.Mutex

	g.runPool(ctx, func(part int, wctx *Ctx) error {
		start := time.Now()
		node := g.Parts[part]
		if err := node.Open(wctx); err != nil {
			node.Close(wctx) // release pins of a partially-opened subtree
			return err
		}
		defer node.Close(wctx)
		table := &aggTable{}
		keyBuf := make(expr.Row, len(g.GroupBy))
		var rows, eva int64
		// Batch fast path: a Rebatch-rooted partition is driven batch by
		// batch, skipping the per-tuple iterator boundary entirely.
		// (Analyzed runs wrap parts in Instrumented and take the tuple
		// loop below; Rebatch still moves batches underneath it.)
		if rb, ok := node.(*Rebatch); ok {
			rows, eva, err := drainBatchesIntoAgg(wctx, rb.Child, g.GroupBy, g.Aggs, table, keyBuf)
			if err != nil {
				return err
			}
			partTables[part] = table
			evaMu.Lock()
			evaTotal += eva
			evaMu.Unlock()
			g.noteStat(WorkerStat{Part: part, Rows: rows, Elapsed: time.Since(start), Agg: true})
			return nil
		}
		for {
			row, ok, err := node.Next(wctx)
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			rows++
			wctx.Prof().Add(profile.CompExec, profile.ExecNodeTuple+int64(len(g.Aggs))*profile.AggTransition)
			for i, ge := range g.GroupBy {
				keyBuf[i] = ge.Eval(row, &wctx.Expr)
			}
			grp := table.find(keyBuf, len(g.Aggs))
			for i := range g.Aggs {
				spec := &g.Aggs[i]
				var v types.Datum
				switch {
				case spec.Bee != nil:
					eva++
					v = spec.Bee.Eval(row, &wctx.Expr)
				case spec.Arg != nil:
					v = spec.Arg.Eval(row, &wctx.Expr)
				}
				grp.states[i].add(spec, v)
			}
		}
		partTables[part] = table
		evaMu.Lock()
		evaTotal += eva
		evaMu.Unlock()
		g.noteStat(WorkerStat{Part: part, Rows: rows, Elapsed: time.Since(start), Agg: true})
		return nil
	})
	if err := g.loadErr(); err != nil {
		return err
	}
	g.evaCalls = evaTotal

	// Merge partial states in partition order: partitions cover the heap
	// in page order, so first appearance across partitions equals the
	// serial first-appearance order and parallel GROUP BY output order
	// matches the serial plan.
	merged := &aggTable{}
	for _, t := range partTables {
		if t == nil {
			continue
		}
		for _, pg := range t.order {
			grp := merged.find(pg.keys, len(g.Aggs))
			for i := range grp.states {
				grp.states[i].merge(&pg.states[i])
			}
		}
	}
	if len(g.GroupBy) == 0 && len(merged.order) == 0 {
		merged.find(nil, len(g.Aggs))
	}
	g.table = merged
	return nil
}

// openMerge opens (and thereby sorts) every part on the pool; Next then
// k-way merges the sorted runs serially.
func (g *Gather) openMerge(ctx *Ctx) error {
	g.opened = make([]bool, len(g.Parts))
	g.runPool(ctx, func(part int, wctx *Ctx) error {
		start := time.Now()
		if err := g.Parts[part].Open(wctx); err != nil {
			g.Parts[part].Close(wctx) // release pins of a partially-opened subtree
			return err
		}
		g.opened[part] = true
		g.noteStat(WorkerStat{Part: part, Elapsed: time.Since(start)})
		return nil
	})
	if err := g.loadErr(); err != nil {
		g.closeParts(ctx)
		return err
	}
	// Prime one head row per run. Part rows must stay valid across Next
	// calls (guaranteed by the Sort rooting each part).
	g.heads = make([]expr.Row, len(g.Parts))
	for i, p := range g.Parts {
		row, ok, err := p.Next(ctx)
		if err != nil {
			g.closeParts(ctx)
			return err
		}
		if ok {
			g.heads[i] = row
		}
	}
	return nil
}

// Next implements Node.
func (g *Gather) Next(ctx *Ctx) (expr.Row, bool, error) {
	if g.Mode == GatherAgg {
		if g.table == nil || g.pos >= len(g.table.order) {
			return nil, false, nil
		}
		grp := g.table.order[g.pos]
		g.pos++
		copy(g.outBuf, grp.keys)
		for i := range g.Aggs {
			g.outBuf[len(g.GroupBy)+i] = grp.states[i].result(&g.Aggs[i])
		}
		return g.outBuf, true, nil
	}
	best := -1
	for i, row := range g.heads {
		if row == nil {
			continue
		}
		if best < 0 || compareRows(row, g.heads[best], g.MergeKeys) < 0 {
			best = i
		}
	}
	if best < 0 {
		return nil, false, nil
	}
	row := g.heads[best]
	next, ok, err := g.Parts[best].Next(ctx)
	if err != nil {
		return nil, false, err
	}
	if ok {
		g.heads[best] = next
	} else {
		g.heads[best] = nil
	}
	return row, true, nil
}

// Close implements Node; it closes merge-mode runs and reports pooled
// bee-call counts.
func (g *Gather) Close(ctx *Ctx) {
	g.closeParts(ctx)
	// Release the merged groups and merge heads, as HashAgg.Close does.
	g.table, g.heads = nil, nil
	clear(g.outBuf)
	noteEVA(g.Aggs, g.evaCalls)
	g.evaCalls = 0
}

func (g *Gather) closeParts(ctx *Ctx) {
	for i, p := range g.Parts {
		if g.opened != nil && g.opened[i] {
			p.Close(ctx)
			g.opened[i] = false
		}
	}
}

// Schema implements Node. In aggregation mode it mirrors HashAgg's output
// (group keys then aggregates); otherwise it is the partition schema.
func (g *Gather) Schema() []ColInfo {
	if g.Mode == GatherMerge {
		return g.Parts[0].Schema()
	}
	if g.cols != nil {
		return g.cols
	}
	cols := make([]ColInfo, 0, len(g.GroupBy)+len(g.Aggs))
	for i, ge := range g.GroupBy {
		cols = append(cols, ColInfo{Name: fmt.Sprintf("group%d", i), T: ge.Type()})
	}
	for _, s := range g.Aggs {
		name := s.Name
		if name == "" {
			name = s.Fn.String()
		}
		cols = append(cols, ColInfo{Name: name, T: s.ResultType()})
	}
	g.cols = cols
	return cols
}

// WalkGathers visits every Gather in a plan tree (unwrapping analyzed
// runs' Instrumented decorators) so the engine can fold worker statistics
// into the metrics registry.
func WalkGathers(n Node, fn func(*Gather)) {
	switch in := n.(type) {
	case *Instrumented:
		n = in.Inner
	case *InstrumentedBatch:
		n = in.Inner
	}
	switch v := n.(type) {
	case *Gather:
		fn(v)
		for _, p := range v.Parts {
			WalkGathers(p, fn)
		}
	case *Filter:
		WalkGathers(v.Child, fn)
	case *Project:
		WalkGathers(v.Child, fn)
	case *Limit:
		WalkGathers(v.Child, fn)
	case *Sort:
		WalkGathers(v.Child, fn)
	case *Distinct:
		WalkGathers(v.Child, fn)
	case *Materialize:
		WalkGathers(v.Child, fn)
	case *HashAgg:
		WalkGathers(v.Child, fn)
	case *HashJoin:
		WalkGathers(v.Outer, fn)
		WalkGathers(v.Inner, fn)
	case *NLJoin:
		WalkGathers(v.Outer, fn)
		WalkGathers(v.Inner, fn)
	case *Rebatch:
		WalkGathers(v.Child, fn)
	case *BatchFilter:
		WalkGathers(v.Child, fn)
	case *BatchHashAgg:
		WalkGathers(v.Child, fn)
	}
}

// ParallelSafeExpr reports whether an expression may be evaluated
// concurrently by partition workers. The walk is a whitelist: every node
// type known to be stateless at Eval passes; anything else — subquery
// expressions (which run stateful subplans and cache results), outer-row
// references, and future node types — conservatively disqualifies the
// plan from parallel execution, mirroring the bee module's fallback
// behaviour for shapes its snippets do not cover.
func ParallelSafeExpr(e expr.Expr) bool {
	switch n := e.(type) {
	case nil:
		return true
	case *expr.Var, *expr.Const, *expr.InList:
		return true
	case *expr.Param:
		// Workers only read the bound slot values; binding happens before
		// the plan runs.
		return true
	case *expr.Like:
		return ParallelSafeExpr(n.Kid)
	case *expr.Cmp:
		return ParallelSafeExpr(n.L) && ParallelSafeExpr(n.R)
	case *expr.Arith:
		return ParallelSafeExpr(n.L) && ParallelSafeExpr(n.R)
	case *expr.DateArith:
		return ParallelSafeExpr(n.L)
	case *expr.And:
		for _, k := range n.Kids {
			if !ParallelSafeExpr(k) {
				return false
			}
		}
		return true
	case *expr.Or:
		for _, k := range n.Kids {
			if !ParallelSafeExpr(k) {
				return false
			}
		}
		return true
	case *expr.Not:
		return ParallelSafeExpr(n.Kid)
	case *expr.Neg:
		return ParallelSafeExpr(n.Kid)
	case *expr.IsNull:
		return ParallelSafeExpr(n.Kid)
	case *expr.ExtractYear:
		return ParallelSafeExpr(n.Kid)
	case *expr.Substring:
		return ParallelSafeExpr(n.Kid) && ParallelSafeExpr(n.Start) && ParallelSafeExpr(n.Span)
	case *expr.Case:
		for _, w := range n.Whens {
			if !ParallelSafeExpr(w.Cond) || !ParallelSafeExpr(w.Result) {
				return false
			}
		}
		return ParallelSafeExpr(n.Else)
	default:
		return false
	}
}
