package core

import (
	"sort"
	"sync"
	"sync/atomic"

	"microspec/internal/catalog"
	"microspec/internal/expr"
	"microspec/internal/profile"
)

// This file is the per-bee benefit attribution: every bee of a kind the
// executors time registers a BeeUsage entry carrying its static per-row
// abstract-instruction cost next to the cost of the generic routine it
// replaced. Executor nodes that time their bee invocations report
// observed wall time into the entry, and BeeBenefits scales that time by
// the cost ratio to estimate how much each bee has saved — the runtime
// counterpart of the paper's Table 1 instruction counts, answering
// "which bees are earning their keep" on a live server.

// BeeUsage accumulates one bee's runtime usage. Executor nodes reach it
// through the bee descriptor they carry and report with Note; all
// methods are nil-receiver safe so the stock path pays only a nil check.
type BeeUsage struct {
	rows atomic.Int64
	ns   atomic.Int64

	// Static per-row abstract instruction costs, written at compile time
	// under the bee-table lock: the bee routine's cost and the generic
	// routine's cost for the same work.
	beeCost   int64
	stockCost int64
}

// Note reports rows processed by the bee over ns nanoseconds of observed
// wall time. Executors accumulate locally and call this once at Close.
func (u *BeeUsage) Note(rows, ns int64) {
	if u == nil || rows <= 0 {
		return
	}
	u.rows.Add(rows)
	u.ns.Add(ns)
}

// SignedEstSavedNs is the advisor's demotion signal: the same
// observed × (stock − bee) / bee estimate as BeeBenefit.EstSavedNs but
// without the positive clamp, so a bee whose static cost exceeds the
// stock routine's (the cost model says it is a net loss for this shape)
// reports a negative saving. Returns 0 until the bee has timed work.
func (u *BeeUsage) SignedEstSavedNs() int64 {
	if u == nil || u.beeCost <= 0 {
		return 0
	}
	ns := u.ns.Load()
	if ns <= 0 {
		return 0
	}
	return ns * (u.stockCost - u.beeCost) / u.beeCost
}

// Rows returns how many rows the bee has processed on timed paths.
func (u *BeeUsage) Rows() int64 {
	if u == nil {
		return 0
	}
	return u.rows.Load()
}

// BeeBenefit is one bee's attribution line: identity, usage, the static
// cost pair, and the estimated time saved versus the stock routine.
type BeeBenefit struct {
	Kind string `json:"kind"`
	Name string `json:"name"`
	// Rows is how many rows the bee has processed (timed paths only).
	Rows int64 `json:"rows"`
	// ObservedNs is the wall time spent inside the bee routine.
	ObservedNs int64 `json:"observed_ns"`
	// BeeCost and StockCost are per-row abstract instruction costs of the
	// specialized and generic routines.
	BeeCost   int64 `json:"bee_cost"`
	StockCost int64 `json:"stock_cost"`
	// EstSavedNs scales ObservedNs by the cost ratio:
	// observed × (stock − bee) / bee. Zero until the bee has timed work.
	EstSavedNs int64 `json:"est_saved_ns"`
}

// beeTable maps bee identity to its descriptor. Its lock is subordinate
// to Module.mu (always acquired after, never before).
type beeTable struct {
	mu sync.Mutex
	m  map[beeKey]*Bee
}

// register creates or refreshes the descriptor for k, reporting whether
// it was created. An attributed descriptor carries a benefit entry with
// the given cost pair; re-admitting a bee (replan, fused form of the
// same predicate) keeps accumulated usage and overwrites the costs.
func (t *beeTable) register(m *Module, k beeKey, attributed bool, beeCost, stockCost int64, calls *atomic.Int64) (*Bee, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.m == nil {
		t.m = make(map[beeKey]*Bee)
	}
	b := t.m[k]
	fresh := b == nil
	if fresh {
		b = &Bee{Kind: k.kind, Name: k.name, calls: calls, m: m}
		if attributed {
			b.Usage = &BeeUsage{}
		}
		t.m[k] = b
	}
	if b.Usage != nil {
		b.Usage.beeCost, b.Usage.stockCost = beeCost, stockCost
	}
	return b, fresh
}

func (t *beeTable) usage(k beeKey) *BeeUsage {
	t.mu.Lock()
	defer t.mu.Unlock()
	if b := t.m[k]; b != nil {
		return b.Usage
	}
	return nil
}

// BeeBenefits reports every registered bee's attribution, estimated
// saving first (then rows, then identity, so the order is stable).
func (m *Module) BeeBenefits() []BeeBenefit {
	m.bees.mu.Lock()
	defer m.bees.mu.Unlock()
	out := make([]BeeBenefit, 0, len(m.bees.m))
	for k, bee := range m.bees.m {
		u := bee.Usage
		if u == nil {
			continue
		}
		b := BeeBenefit{
			Kind:       k.kind,
			Name:       k.name,
			Rows:       u.rows.Load(),
			ObservedNs: u.ns.Load(),
			BeeCost:    u.beeCost,
			StockCost:  u.stockCost,
		}
		if b.BeeCost > 0 && b.ObservedNs > 0 && b.StockCost > b.BeeCost {
			b.EstSavedNs = b.ObservedNs * (b.StockCost - b.BeeCost) / b.BeeCost
		}
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.EstSavedNs != b.EstSavedNs {
			return a.EstSavedNs > b.EstSavedNs
		}
		if a.Rows != b.Rows {
			return a.Rows > b.Rows
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Name < b.Name
	})
	return out
}

// stockExprCost estimates the per-row abstract instruction cost of the
// generic interpreted evaluator for e — the baseline an EVP/EVA bee
// replaces. It mirrors the ctx.Prof charges in package expr: ExprNode
// per operator dispatch, ExprVar/ExprConst per leaf fetch.
func stockExprCost(e expr.Expr) int64 {
	switch n := e.(type) {
	case nil:
		return 0
	case *expr.Const:
		return profile.ExprConst
	case *expr.Param:
		return profile.ExprConst
	case *expr.Var:
		return profile.ExprVar
	case *expr.OuterVar:
		return profile.ExprVar
	case *expr.Cmp:
		return profile.ExprNode + stockExprCost(n.L) + stockExprCost(n.R)
	case *expr.Arith:
		return profile.ExprNode + stockExprCost(n.L) + stockExprCost(n.R)
	case *expr.And:
		return profile.ExprNode + stockExprList(n.Kids)
	case *expr.Or:
		return profile.ExprNode + stockExprList(n.Kids)
	case *expr.Not:
		return profile.ExprNode + stockExprCost(n.Kid)
	case *expr.IsNull:
		return profile.ExprNode + stockExprCost(n.Kid)
	case *expr.Like:
		return profile.ExprNode + stockExprCost(n.Kid)
	case *expr.InList:
		return profile.ExprNode + stockExprCost(n.Kid) + int64(len(n.Items))*profile.ExprConst
	case *expr.DateArith:
		return profile.ExprNode + stockExprCost(n.L)
	case *expr.ExtractYear:
		return profile.ExprNode + stockExprCost(n.Kid)
	case *expr.Neg:
		return profile.ExprNode + stockExprCost(n.Kid)
	case *expr.Substring:
		return profile.ExprNode + stockExprCost(n.Kid) + stockExprCost(n.Start) + stockExprCost(n.Span)
	case *expr.Case:
		c := int64(profile.ExprNode)
		for _, w := range n.Whens {
			c += stockExprCost(w.Cond) + stockExprCost(w.Result)
		}
		return c + stockExprCost(n.Else)
	}
	return profile.ExprNode
}

func stockExprList(kids []expr.Expr) int64 {
	var c int64
	for _, k := range kids {
		c += stockExprCost(k)
	}
	return c
}

// genericDeformCost estimates the per-row abstract instruction cost of
// the generic slot_deform_tuple loop over rel's first natts attributes
// (the charging in tuple.SlotDeform, assuming non-null values).
func genericDeformCost(rel *catalog.Relation, natts int) int64 {
	c := int64(profile.DeformBase)
	for i := 0; i < natts && i < len(rel.Attrs); i++ {
		a := rel.Attrs[i]
		if !a.NotNull {
			c += profile.DeformNullBitmapCheck
		}
		if a.Len < 0 {
			c += profile.DeformVarlenaAttr
		} else {
			c += profile.DeformFixedAttr
		}
	}
	return c
}

// stockJoinQualCost estimates the generic per-pair join-qual cost an EVJ
// bee replaces: the FuncExprState walk over nkeys equality terms.
func stockJoinQualCost(nkeys int) int64 {
	return profile.JoinQualNode + int64(nkeys)*(profile.ExprNode+2*profile.ExprVar)
}
