package exec

import (
	"fmt"
	"runtime/debug"

	"microspec/internal/core"
	"microspec/internal/expr"
)

// PanicError is a recovered executor or bee panic converted into an
// ordinary error at a containment boundary (the engine's query recover,
// Gather's worker recover). The stack is captured at recovery time so
// the fault stays diagnosable after containment.
type PanicError struct {
	Val   any
	Stack []byte
}

// NewPanicError captures the recovered value and the current stack.
func NewPanicError(val any) *PanicError {
	return &PanicError{Val: val, Stack: debug.Stack()}
}

// Error implements error.
func (e *PanicError) Error() string { return fmt.Sprintf("query panic: %v", e.Val) }

// WalkBees reports the descriptor of every query bee wired into a plan
// tree (EVP filter and join predicates, fused scan filters, EVA
// aggregate inputs, EVJ join keys), unwrapping Instrumented decorators
// like WalkGathers. Relation bees (GCL/SCL) are deliberately excluded:
// specialized storage has no generic deform fallback, so they are not
// quarantine candidates.
//
// The engine uses the result to quarantine a panicking plan's bees: the
// panic's recover boundary cannot attribute the fault to one closure, so
// the policy is to quarantine all of them (see DESIGN.md §9). The
// advisor's demand feed reads the same descriptors.
func WalkBees(n Node, fn func(*core.Bee)) {
	switch in := n.(type) {
	case *Instrumented:
		n = in.Inner
	case *InstrumentedBatch:
		n = in.Inner
	}
	pred := func(p *core.Pred) {
		if p != nil {
			fn(p.Bee)
		}
	}
	aggRefs := func(specs []AggSpec) {
		for i := range specs {
			pred(specs[i].Bee)
			walkExprBees(specs[i].Arg, fn)
		}
	}
	switch v := n.(type) {
	case *IndexScan, *ValuesNode:
		// Leaves; GCL excluded by policy.
	case *BatchSeqScan:
		// A fused scan-filter carries the predicate's EVP descriptor, so
		// quarantining it disables every form; the GCL half is excluded
		// by the policy above.
		if v.Fused != nil {
			fn(v.Fused.Bee)
			walkExprBees(v.FusedPred, fn)
		}
	case *Rebatch:
		WalkBees(v.Child, fn)
	case *BatchFilter:
		pred(v.Bee)
		walkExprBees(v.Pred, fn)
		WalkBees(v.Child, fn)
	case *BatchHashAgg:
		aggRefs(v.Aggs)
		WalkBees(v.Child, fn)
	case *Filter:
		pred(v.Bee)
		walkExprBees(v.Pred, fn)
		WalkBees(v.Child, fn)
	case *Project:
		for _, e := range v.Exprs {
			walkExprBees(e, fn)
		}
		WalkBees(v.Child, fn)
	case *Limit:
		WalkBees(v.Child, fn)
	case *Sort:
		WalkBees(v.Child, fn)
	case *Distinct:
		WalkBees(v.Child, fn)
	case *Materialize:
		WalkBees(v.Child, fn)
	case *HashAgg:
		aggRefs(v.Aggs)
		WalkBees(v.Child, fn)
	case *HashJoin:
		if v.EVJ != nil {
			fn(v.EVJ.Bee)
		}
		pred(v.ResidualBee)
		walkExprBees(v.Residual, fn)
		WalkBees(v.Outer, fn)
		WalkBees(v.Inner, fn)
	case *NLJoin:
		pred(v.QualBee)
		walkExprBees(v.Qual, fn)
		WalkBees(v.Outer, fn)
		WalkBees(v.Inner, fn)
	case *Gather:
		aggRefs(v.Aggs)
		for _, p := range v.Parts {
			WalkBees(p, fn)
		}
	}
}

// walkExprBees descends an expression tree looking for subquery nodes and
// walks their subplans: a bee panic inside a subquery unwinds through the
// outer plan's recover boundary, so the subplan's bees are quarantine
// candidates exactly like the outer plan's.
func walkExprBees(e expr.Expr, fn func(*core.Bee)) {
	switch n := e.(type) {
	case nil:
	case *ScalarSubquery:
		WalkBees(n.Plan, fn)
	case *ExistsSubquery:
		WalkBees(n.Plan, fn)
	case *InSubquery:
		WalkBees(n.Plan, fn)
		walkExprBees(n.Kid, fn)
	case *expr.And:
		for _, k := range n.Kids {
			walkExprBees(k, fn)
		}
	case *expr.Or:
		for _, k := range n.Kids {
			walkExprBees(k, fn)
		}
	case *expr.Not:
		walkExprBees(n.Kid, fn)
	case *expr.Cmp:
		walkExprBees(n.L, fn)
		walkExprBees(n.R, fn)
	case *expr.Arith:
		walkExprBees(n.L, fn)
		walkExprBees(n.R, fn)
	case *expr.Case:
		for _, w := range n.Whens {
			walkExprBees(w.Cond, fn)
			walkExprBees(w.Result, fn)
		}
		walkExprBees(n.Else, fn)
	}
}
