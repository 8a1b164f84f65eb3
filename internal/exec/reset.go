package exec

import "microspec/internal/expr"

// ResetCaches drops every cross-run cache in a plan tree: Materialize
// row buffers and uncorrelated subquery results. Prepared statements
// call it between executions when the underlying data changed (DML ran
// since the last EXECUTE), so a cached plan re-reads current data while
// keeping its compiled bees. The traversal mirrors WalkBees, descending
// into expression-held subquery subplans.
func ResetCaches(n Node) {
	switch in := n.(type) {
	case *Instrumented:
		n = in.Inner
	case *InstrumentedBatch:
		n = in.Inner
	}
	aggExprs := func(specs []AggSpec) {
		for i := range specs {
			resetExprCaches(specs[i].Arg)
		}
	}
	switch v := n.(type) {
	case *IndexScan, *ValuesNode:
	case *BatchSeqScan:
		resetExprCaches(v.FusedPred)
	case *Rebatch:
		ResetCaches(v.Child)
	case *BatchFilter:
		resetExprCaches(v.Pred)
		ResetCaches(v.Child)
	case *BatchHashAgg:
		aggExprs(v.Aggs)
		ResetCaches(v.Child)
	case *Filter:
		resetExprCaches(v.Pred)
		ResetCaches(v.Child)
	case *Project:
		for _, e := range v.Exprs {
			resetExprCaches(e)
		}
		ResetCaches(v.Child)
	case *Limit:
		ResetCaches(v.Child)
	case *Sort:
		ResetCaches(v.Child)
	case *Distinct:
		ResetCaches(v.Child)
	case *Materialize:
		v.Invalidate()
		ResetCaches(v.Child)
	case *HashAgg:
		aggExprs(v.Aggs)
		ResetCaches(v.Child)
	case *HashJoin:
		resetExprCaches(v.Residual)
		ResetCaches(v.Outer)
		ResetCaches(v.Inner)
	case *NLJoin:
		resetExprCaches(v.Qual)
		ResetCaches(v.Outer)
		ResetCaches(v.Inner)
	case *Gather:
		aggExprs(v.Aggs)
		for _, p := range v.Parts {
			ResetCaches(p)
		}
	}
}

func resetExprCaches(e expr.Expr) {
	switch n := e.(type) {
	case nil:
	case *ScalarSubquery:
		n.Reset()
		ResetCaches(n.Plan)
	case *ExistsSubquery:
		n.Reset()
		ResetCaches(n.Plan)
	case *InSubquery:
		n.Reset()
		ResetCaches(n.Plan)
		resetExprCaches(n.Kid)
	case *expr.And:
		for _, k := range n.Kids {
			resetExprCaches(k)
		}
	case *expr.Or:
		for _, k := range n.Kids {
			resetExprCaches(k)
		}
	case *expr.Not:
		resetExprCaches(n.Kid)
	case *expr.Cmp:
		resetExprCaches(n.L)
		resetExprCaches(n.R)
	case *expr.Arith:
		resetExprCaches(n.L)
		resetExprCaches(n.R)
	case *expr.Case:
		for _, w := range n.Whens {
			resetExprCaches(w.Cond)
			resetExprCaches(w.Result)
		}
		resetExprCaches(n.Else)
	}
}
