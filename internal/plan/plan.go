// Package plan turns parsed SQL statements into executable Volcano-style
// plan trees. It owns join ordering (greedy left-deep), predicate
// pushdown, aggregate extraction, subquery decorrelation, the EXPLAIN /
// EXPLAIN ANALYZE renderers, and — at the end of planning — the
// intra-query parallelization pass that rewrites eligible scan spines
// into Gather nodes whose partitions share the serial plan's bees
// (parallel.go). It is also where bees are placed into plans: every
// scan, filter, join, and aggregate consults the bee module
// (internal/core) for a specialized routine and falls back to the
// generic evaluator when none applies.
//
// Every sequential scan is built on the batch executor path as a scan
// spine: a chain of BatchFilters over one BatchSeqScan, rooted in a
// Rebatch adapter so row-at-a-time consumers (joins, sorts, projections)
// read it unchanged. Filters pushed onto a spine extend it, and an
// aggregation directly over one drains its batches (BatchHashAgg).
package plan

import (
	"fmt"
	"sync"

	"microspec/internal/catalog"
	"microspec/internal/core"
	"microspec/internal/exec"
	"microspec/internal/expr"
	"microspec/internal/index/btree"
	"microspec/internal/sql"
	"microspec/internal/storage/heap"
	"microspec/internal/types"
)

// Planner turns parsed statements into executable plans for one database.
type Planner struct {
	Cat *catalog.Catalog
	Mod *core.Module
	// HeapFor resolves a relation to its heap (provided by the engine).
	HeapFor func(rel *catalog.Relation) (*heap.Heap, error)
	// Workers is the intra-query parallelism degree; plans stay serial
	// when it is ≤ 1 (see parallelize).
	Workers int
	// Params is the prepared-statement slot array $n placeholders bind
	// to. Nil outside a prepared statement, in which case placeholders
	// are a planning error. The engine copies the Planner per prepare, so
	// setting this never races with other sessions.
	Params *expr.ParamSlots
	// ParamTypes records the type inferred for each placeholder during
	// conversion (indexed by 0-based slot). The prepare path sizes it;
	// EXECUTE uses it to coerce bound values.
	ParamTypes []types.T
	// IndexesFor lists the secondary/primary indexes available on a
	// relation as (column-ordinal prefix, lookup) pairs; the engine
	// provides it so attachFilters can plan equality index scans. Nil
	// disables index scan selection.
	IndexesFor func(rel *catalog.Relation) []IndexMeta
}

// IndexMeta describes one index usable for planning: the indexed column
// ordinals (in key order) and the open handle the executor probes. Latch
// is the owning table's latch; index scans walk the tree under it in
// shared mode because the tree is not internally synchronized (see
// exec.IndexScan.Latch).
type IndexMeta struct {
	Name  string
	Cols  []int
	Tree  *btree.Tree
	Latch *sync.RWMutex
}

// Planned is a ready-to-run query plan.
type Planned struct {
	Root exec.Node
	Cols []exec.ColInfo
}

// PlanSelect plans a full SELECT statement.
func (p *Planner) PlanSelect(sel *sql.Select) (*Planned, error) {
	node, sc, err := p.planSelect(sel, nil)
	if err != nil {
		return nil, err
	}
	node = p.parallelize(node)
	cols := make([]exec.ColInfo, len(sc.cols))
	for i, c := range sc.cols {
		cols[i] = exec.ColInfo{Name: c.name, T: c.t}
	}
	return &Planned{Root: node, Cols: cols}, nil
}

// scanFor builds a bare scan spine over a base relation: a BatchSeqScan
// deforming through the bee module's batch deformer (the GCL bee or the
// generic loop), behind the Rebatch adapter.
func (p *Planner) scanFor(rel *catalog.Relation) (exec.Node, error) {
	h, err := p.HeapFor(rel)
	if err != nil {
		return nil, err
	}
	deform, err := p.Mod.BatchDeformer(rel)
	if err != nil {
		return nil, err
	}
	scan := exec.NewBatchSeqScan(h, deform, 0)
	scan.GCL = p.Mod.GCLBee(rel)
	return &exec.Rebatch{Child: scan}, nil
}

// bareScan returns the scan of a spine that carries no predicate yet, or
// nil when n is anything else.
func bareScan(n exec.Node) *exec.BatchSeqScan {
	if rb, ok := n.(*exec.Rebatch); ok {
		if s, ok := rb.Child.(*exec.BatchSeqScan); ok && s.Fused == nil {
			return s
		}
	}
	return nil
}

// filter applies pred to child's rows, with the predicate's EVP bee when
// the bee module admits one. Over a scan spine the predicate extends the
// spine: fused into a bare scan as the composed GCL∘EVP routine when the
// bee module covers relation and predicate, otherwise as a BatchFilter.
// Any other child gets a row-at-a-time Filter.
func (p *Planner) filter(child exec.Node, pred expr.Expr) exec.Node {
	bee, _ := p.Mod.CompilePredicate(pred)
	rb, ok := child.(*exec.Rebatch)
	if !ok {
		return &exec.Filter{Child: child, Pred: pred, Bee: bee}
	}
	// Fusing the first predicate keeps predicate order: later ones run
	// above it, on the rows it passed.
	if s := bareScan(child); s != nil && bee != nil {
		if fs, ok := p.Mod.CompileFusedScanFilter(s.Heap.Rel, pred, s.NAtts); ok {
			s.Fused, s.FusedPred = fs, pred
			return rb
		}
	}
	return &exec.Rebatch{Child: &exec.BatchFilter{Child: rb.Child, Pred: pred, Bee: bee}}
}

// estRows estimates a base relation's cardinality for join ordering.
func (p *Planner) estRows(rel *catalog.Relation) float64 {
	h, err := p.HeapFor(rel)
	if err != nil || h.LiveTuples() == 0 {
		return 1000
	}
	return float64(h.LiveTuples())
}

// ConvertForRelation lowers an AST expression whose identifiers all
// reference one relation's attributes (UPDATE/DELETE WHERE clauses and
// SET expressions).
func (p *Planner) ConvertForRelation(e sql.Expr, rel *catalog.Relation) (expr.Expr, error) {
	cols := make([]column, len(rel.Attrs))
	for i, a := range rel.Attrs {
		cols[i] = column{tbl: rel.Name, name: a.Name, t: a.Type}
	}
	return p.convertExpr(e, &scope{cols: cols})
}

// baseRelation resolves a FROM-list base table to a catalog relation,
// returning nil if the name is a CTE instead.
func (p *Planner) baseRelation(name string, s *scope) (*catalog.Relation, error) {
	if s != nil {
		if _, ok := s.lookupCTE(name); ok {
			return nil, nil
		}
	}
	rel, err := p.Cat.Lookup(name)
	if err != nil {
		return nil, fmt.Errorf("plan: %w", err)
	}
	return rel, nil
}
