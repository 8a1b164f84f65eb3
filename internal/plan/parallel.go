package plan

import (
	"microspec/internal/exec"
	"microspec/internal/storage/heap"
)

// minParallelPages is the smallest heap (in pages) worth partitioning:
// below it, worker startup costs more than the scan itself.
const minParallelPages = 8

// spineScan returns the whole-heap scan at the bottom of a scan spine (a
// chain of BatchFilters over one BatchSeqScan), or nil when the spine
// reads a single partition already or any predicate on it is unsafe for
// concurrent workers (subquery expressions, outer references).
func spineScan(n exec.BatchNode) *exec.BatchSeqScan {
	for {
		switch v := n.(type) {
		case *exec.BatchFilter:
			if !exec.ParallelSafeExpr(v.Pred) {
				return nil
			}
			n = v.Child
		case *exec.BatchSeqScan:
			if v.Partial || !exec.ParallelSafeExpr(v.FusedPred) {
				return nil
			}
			return v
		default:
			return nil
		}
	}
}

// partition copies a scan spine onto one page range. The copy has its
// own runtime state but shares every bee with the serial spine: deform,
// fused scan-filter, and predicate routines are stateless closures, and
// their call counters and usage entries are atomic.
func partition(n exec.BatchNode, r heap.PageRange) exec.BatchNode {
	if f, ok := n.(*exec.BatchFilter); ok {
		return &exec.BatchFilter{Child: partition(f.Child, r), Pred: f.Pred, Bee: f.Bee}
	}
	s := n.(*exec.BatchSeqScan)
	part := exec.NewBatchSeqScan(s.Heap, s.Deform, s.NAtts)
	part.GCL, part.Fused, part.FusedPred = s.GCL, s.Fused, s.FusedPred
	part.Range, part.Partial = r, true
	return part
}

// buildParts replicates a parallel-safe spine once per page-range
// partition, each rooted in a Rebatch; nil when the spine is not
// parallel-safe or its heap is too small to split.
func (p *Planner) buildParts(spine exec.BatchNode) []exec.Node {
	scan := spineScan(spine)
	if scan == nil || scan.Heap.NumPages() < minParallelPages {
		return nil
	}
	ranges := scan.Heap.Partitions(p.Workers)
	if len(ranges) < 2 {
		return nil
	}
	parts := make([]exec.Node, len(ranges))
	for i, r := range ranges {
		parts[i] = &exec.Rebatch{Child: partition(spine, r)}
	}
	return parts
}

// parallelize rewrites a finished serial plan for intra-query
// parallelism. It only introduces Gather nodes where the result stays
// byte-identical to the serial plan:
//
//   - a BatchHashAgg over a scan spine becomes a partial-aggregation
//     Gather (merging partition tables in page order reproduces the
//     serial first-appearance group order);
//   - a Sort (optionally over a Project) over a scan spine becomes a
//     sorted-run-merge Gather (ties resolve in partition page order,
//     matching the serial stable sort).
//
// Plain streaming fragments keep their serial form: parallelizing them
// would reorder visible rows. Joins and subquery-bearing predicates also
// stay serial.
func (p *Planner) parallelize(n exec.Node) exec.Node {
	if p.Workers <= 1 {
		return n
	}
	return p.parRewrite(n)
}

func (p *Planner) parRewrite(n exec.Node) exec.Node {
	switch v := n.(type) {
	case *exec.BatchHashAgg:
		if g := p.tryGatherAgg(v); g != nil {
			return g
		}
	case *exec.Sort:
		if g := p.tryGatherMerge(v); g != nil {
			return g
		}
		v.Child = p.parRewrite(v.Child)
	case *exec.HashAgg:
		v.Child = p.parRewrite(v.Child)
	case *exec.Filter:
		v.Child = p.parRewrite(v.Child)
	case *exec.Project:
		v.Child = p.parRewrite(v.Child)
	case *exec.Limit:
		v.Child = p.parRewrite(v.Child)
	case *exec.Distinct:
		v.Child = p.parRewrite(v.Child)
	case *exec.Materialize:
		v.Child = p.parRewrite(v.Child)
	case *exec.HashJoin:
		v.Outer = p.parRewrite(v.Outer)
		v.Inner = p.parRewrite(v.Inner)
	case *exec.NLJoin:
		v.Outer = p.parRewrite(v.Outer)
		v.Inner = p.parRewrite(v.Inner)
	}
	return n
}

// tryGatherAgg converts BatchHashAgg(spine) into a partial-aggregation
// Gather, or returns nil when the plan is not parallel-safe.
func (p *Planner) tryGatherAgg(agg *exec.BatchHashAgg) exec.Node {
	for i := range agg.Aggs {
		spec := &agg.Aggs[i]
		// DISTINCT states cannot be merged across partitions.
		if spec.Distinct || !exec.ParallelSafeExpr(spec.Arg) {
			return nil
		}
	}
	for _, g := range agg.GroupBy {
		if !exec.ParallelSafeExpr(g) {
			return nil
		}
	}
	parts := p.buildParts(agg.Child)
	if parts == nil {
		return nil
	}
	p.Mod.NoteParallelPlan()
	return &exec.Gather{
		Parts:   parts,
		Workers: len(parts),
		Mode:    exec.GatherAgg,
		GroupBy: agg.GroupBy,
		Aggs:    agg.Aggs,
	}
}

// tryGatherMerge converts Sort(Project?(spine)) into a sorted-run-merge
// Gather whose partitions sort in parallel, or returns nil when the plan
// is not parallel-safe.
func (p *Planner) tryGatherMerge(s *exec.Sort) exec.Node {
	child := s.Child
	proj, _ := child.(*exec.Project)
	if proj != nil {
		for _, e := range proj.Exprs {
			if !exec.ParallelSafeExpr(e) {
				return nil
			}
		}
		child = proj.Child
	}
	rb, ok := child.(*exec.Rebatch)
	if !ok {
		return nil
	}
	parts := p.buildParts(rb.Child)
	if parts == nil {
		return nil
	}
	for i, part := range parts {
		if proj != nil {
			part = &exec.Project{Child: part, Exprs: proj.Exprs, Cols: proj.Cols}
		}
		parts[i] = &exec.Sort{Child: part, Keys: s.Keys}
	}
	p.Mod.NoteParallelPlan()
	return &exec.Gather{
		Parts:     parts,
		Workers:   len(parts),
		Mode:      exec.GatherMerge,
		MergeKeys: s.Keys,
	}
}
