// Package exec implements the Volcano-style query executor: sequential
// and index scans, filters, projections, hash and nested-loop joins
// (inner/left/semi/anti), hash aggregation, sorting, limits,
// materialization, and subquery expressions. Each per-tuple path exists
// in a generic form (interpreted predicates, generic join quals, generic
// deform) and a bee form (EVP, EVJ, GCL) selected at plan time through
// the bee module — the executor is the paper's "Runtime Database
// Processor" with the Bee Caller wired in.
package exec

import (
	"context"

	"microspec/internal/expr"
	"microspec/internal/profile"
	"microspec/internal/txn"
	"microspec/internal/types"
)

// ColInfo describes one output column of a plan node.
type ColInfo struct {
	Name string
	T    types.T
}

// Ctx is the per-execution context threaded through every node.
type Ctx struct {
	// Context carries the query's cancellation/deadline signal; nil means
	// not cancellable. Gather propagates it into every worker Ctx.
	Context context.Context

	// Expr carries the profiler and correlated-subquery outer rows.
	Expr expr.Ctx

	// Snap is the MVCC snapshot scans and index fetches resolve tuple
	// visibility against; nil means latest committed (only sound when
	// the caller has excluded concurrent writers, e.g. under the
	// engine's exclusive lock). Gather propagates it into every worker
	// Ctx so parallel partitions share one consistent view.
	Snap *txn.Snapshot

	// cancelTick throttles Canceled's context polls (see cancelCheckMask).
	cancelTick uint
}

// Prof returns the profiler (possibly nil).
func (c *Ctx) Prof() *profile.Counters { return c.Expr.Prof }

// cancelCheckMask throttles cancellation checks to one context poll per
// 256 calls: a context load is cheap but not free, and Canceled sits on
// per-tuple paths. At scan speed the added cancellation latency is
// microseconds.
const cancelCheckMask = 256 - 1

// Canceled reports the query's cancellation error (context.Canceled or
// context.DeadlineExceeded), polling the context once every 256 calls.
// Per-tuple loops (scans, Collect) call it each iteration.
func (c *Ctx) Canceled() error {
	if c.Context == nil {
		return nil
	}
	c.cancelTick++
	if c.cancelTick&cancelCheckMask != 0 {
		return nil
	}
	return c.Context.Err()
}

// CanceledNow polls the context unconditionally. Per-batch loops call it
// once per batch: at page granularity the poll is already amortized over
// hundreds of rows, so throttling would only add cancellation latency.
func (c *Ctx) CanceledNow() error {
	if c.Context == nil {
		return nil
	}
	return c.Context.Err()
}

// Node is a plan operator. The iteration contract:
//
//   - Open initializes (or re-initializes, for rescans) the node's state;
//     it may be called again after Close.
//   - Next returns the next row. Rows may alias node-internal buffers
//     (pinned pages, deform scratch) and are only valid until the
//     following Next call on the same node; consumers that keep rows
//     longer copy them into a rowArena (arena.go), and consumers that
//     only hold the current row until they call Next again need no copy.
//   - Close releases resources; it is idempotent.
type Node interface {
	Open(ctx *Ctx) error
	Next(ctx *Ctx) (expr.Row, bool, error)
	Close(ctx *Ctx)
	Schema() []ColInfo
}

// CloneRow deep-copies one row, including byte payloads that may alias
// pinned pages or reusable deform buffers: a one-row rowArena copy, with
// all payloads in one backing allocation. It suits single rows kept by
// callers outside the executor (DML's old and new row images); operators
// buffering many rows keep a rowArena of their own.
func CloneRow(row expr.Row) expr.Row {
	var a rowArena
	return a.copyRow(row)
}

// CloneDatum deep-copies one datum.
func CloneDatum(d types.Datum) types.Datum {
	if b := d.Bytes(); b != nil {
		nb := append([]byte(nil), b...)
		return types.NewBytes(nb, d.Kind())
	}
	return d
}

// Collect drains a node into a fully materialized result (Open through
// Close), copying every row into one rowArena. It is the standard entry
// point for running a plan to completion.
func Collect(ctx *Ctx, n Node) ([]expr.Row, error) {
	if err := n.Open(ctx); err != nil {
		// Close even though Open failed: a multi-child Open (join build,
		// Gather) may have opened part of the subtree before the error,
		// and open scans hold buffer pins. Close is idempotent.
		n.Close(ctx)
		return nil, err
	}
	defer n.Close(ctx)
	var out rowArena
	for {
		if err := ctx.Canceled(); err != nil {
			return nil, err
		}
		row, ok, err := n.Next(ctx)
		if err != nil {
			return nil, err
		}
		if !ok {
			return out.rows, nil
		}
		ctx.Prof().Add(profile.CompExec, profile.EmitRow)
		out.add(row)
	}
}
