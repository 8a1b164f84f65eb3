package plan

import (
	"microspec/internal/exec"
)

// This file is the batchify pass: the last planning step rewrites every
// eligible Filter*→SeqScan spine onto the batch-at-a-time executor path
// (internal/exec/batch.go). It runs after parallelize — Gather partition
// subplans are themselves spines, so parallel plans batch too — and only
// changes how rows move, never which rows or in what order, keeping batch
// output identical to the tuple path.
//
// Rewrites:
//
//   - HashAgg(spine)  → BatchHashAgg(batch spine)   (Q1/Q6 shape)
//   - spine elsewhere → Rebatch(batch spine)        (joins, sorts, and
//     projections consume the adapter tuple-at-a-time, unchanged)
//
// A spine is ineligible only when its relation has tuple-bee specialized
// storage while GCL routines are disabled (no batch deformer exists);
// predicates always convert, falling back to the generic interpreter per
// row inside BatchFilter when the Filter carried no EVP bee.

// batchify rewrites a finished plan onto the batch path; it is a no-op
// when batching is disabled.
func (p *Planner) batchify(n exec.Node) exec.Node {
	if !p.Batch || p.Mod == nil {
		return n
	}
	return p.batchRewrite(n)
}

func (p *Planner) batchRewrite(n exec.Node) exec.Node {
	switch v := n.(type) {
	case *exec.HashAgg:
		if bn := p.batchRegion(v.Child); bn != nil {
			return &exec.BatchHashAgg{Child: bn, GroupBy: v.GroupBy, Aggs: v.Aggs}
		}
		v.Child = p.batchRewrite(v.Child)
	case *exec.Filter:
		if bn := p.batchRegion(v); bn != nil {
			return &exec.Rebatch{Child: bn}
		}
		v.Child = p.batchRewrite(v.Child)
	case *exec.SeqScan:
		if bn := p.batchRegion(v); bn != nil {
			return &exec.Rebatch{Child: bn}
		}
	case *exec.Project:
		v.Child = p.batchRewrite(v.Child)
	case *exec.Limit:
		v.Child = p.batchRewrite(v.Child)
	case *exec.Sort:
		v.Child = p.batchRewrite(v.Child)
	case *exec.Distinct:
		v.Child = p.batchRewrite(v.Child)
	case *exec.Materialize:
		v.Child = p.batchRewrite(v.Child)
	case *exec.HashJoin:
		v.Outer = p.batchRewrite(v.Outer)
		v.Inner = p.batchRewrite(v.Inner)
	case *exec.NLJoin:
		v.Outer = p.batchRewrite(v.Outer)
		v.Inner = p.batchRewrite(v.Inner)
	case *exec.Gather:
		// Each partition subplan batches independently; Gather detects
		// Rebatch-rooted parts and drives them batch-wise (partial
		// aggregation and batch streaming) without the tuple boundary.
		for i := range v.Parts {
			v.Parts[i] = p.batchRewrite(v.Parts[i])
		}
	}
	return n
}

// batchRegion converts a Filter*→SeqScan chain into the equivalent
// BatchFilter*→BatchSeqScan chain, or returns nil when n has any other
// shape or the relation has no batch deformer. Filters are re-wrapped in
// the original order so per-row predicate evaluation order — and thus
// profiling and fault behaviour — matches the tuple path exactly.
func (p *Planner) batchRegion(n exec.Node) exec.BatchNode {
	var filters []*exec.Filter
	for {
		switch v := n.(type) {
		case *exec.Filter:
			filters = append(filters, v)
			n = v.Child
		case *exec.SeqScan:
			deform, err := p.Mod.BatchDeformer(v.Heap.Rel)
			if err != nil {
				return nil
			}
			bs := exec.NewBatchSeqScan(v.Heap, deform, v.NAtts)
			bs.GCL = v.GCL
			bs.Range = v.Range
			bs.Partial = v.Partial
			// Fuse the innermost compiled filter into the scan when the
			// composed GCL∘EVP routine covers relation and predicate: the
			// scan then deforms each tuple only as far as the predicate
			// needs, instead of fully deforming rows the filter discards.
			// The tuple path evaluates the innermost filter first, so
			// fusing it preserves predicate order for the rest.
			if k := len(filters) - 1; k >= 0 && filters[k].Bee != nil {
				f := filters[k]
				if fs, ok := p.Mod.CompileFusedScanFilter(v.Heap.Rel, f.Pred, bs.NAtts); ok {
					bs.Fused = fs
					bs.FusedPred = f.Pred
					filters = filters[:k]
				}
			}
			// The remaining filters keep their EVP bees: one compiled
			// predicate serves the tuple and the batch form.
			var node exec.BatchNode = bs
			for j := len(filters) - 1; j >= 0; j-- {
				node = &exec.BatchFilter{Child: node, Pred: filters[j].Pred, Bee: filters[j].Bee}
			}
			return node
		default:
			return nil
		}
	}
}
