package exec

import (
	"sync"

	"microspec/internal/catalog"
	"microspec/internal/core"
	"microspec/internal/expr"
	"microspec/internal/index/btree"
	"microspec/internal/profile"
	"microspec/internal/storage/heap"
)

// relCols is the schema of a scan emitting rel's first natts attributes.
func relCols(rel *catalog.Relation, natts int) []ColInfo {
	cols := make([]ColInfo, natts)
	for i := 0; i < natts; i++ {
		cols[i] = ColInfo{Name: rel.Attrs[i].Name, T: rel.Attrs[i].Type}
	}
	return cols
}

// IndexScan fetches tuples by index key or key range, in index order.
type IndexScan struct {
	Heap   *heap.Heap
	Tree   *btree.Tree
	Deform core.DeformFunc
	NAtts  int
	// Lo and Hi bound the scan (inclusive, prefix semantics); with Hi nil
	// the scan uses prefix-equality on Lo.
	Lo, Hi btree.Key
	// KeyExprs, when set, are evaluated at every Open to rebuild Lo — the
	// equality prefix key of a parameterized point lookup, re-bound per
	// prepared-statement EXECUTE. The expressions must be row-independent
	// (constants and parameters). A NULL key value makes the scan empty:
	// SQL equality never matches NULL.
	KeyExprs []expr.Expr
	// Reverse returns rows in descending key order (materialized).
	Reverse bool
	// Latch, when set, is the owning table's latch, held in shared mode
	// while Open walks the B+tree: the tree is not internally
	// synchronized and concurrent DML mutates it under the same latch in
	// exclusive mode. Heap fetches in Next run latch-free against the
	// snapshot.
	Latch *sync.RWMutex

	tids []heap.TID
	pos  int
	buf  expr.Row
	out  rowArena
	cols []ColInfo
}

// NewIndexScan builds an index scan.
func NewIndexScan(h *heap.Heap, tree *btree.Tree, deform core.DeformFunc, natts int, lo, hi btree.Key, reverse bool) *IndexScan {
	rel := h.Rel
	if natts <= 0 || natts > len(rel.Attrs) {
		natts = len(rel.Attrs)
	}
	return &IndexScan{
		Heap: h, Tree: tree, Deform: deform, NAtts: natts,
		Lo: lo, Hi: hi, Reverse: reverse,
		cols: relCols(rel, natts),
	}
}

// Open implements Node.
func (s *IndexScan) Open(ctx *Ctx) error {
	s.tids = s.tids[:0]
	s.pos = 0
	if len(s.KeyExprs) > 0 {
		if s.Lo == nil {
			s.Lo = make(btree.Key, len(s.KeyExprs))
		}
		for i, e := range s.KeyExprs {
			d := e.Eval(nil, &ctx.Expr)
			if d.IsNull() {
				if s.buf == nil {
					s.buf = make(expr.Row, s.NAtts)
				}
				return nil // = NULL matches nothing
			}
			s.Lo[i] = d
		}
	}
	collect := func(_ btree.Key, tid heap.TID) bool {
		s.tids = append(s.tids, tid)
		return true
	}
	if s.Latch != nil {
		s.Latch.RLock()
	}
	if s.Hi == nil {
		s.Tree.AscendPrefix(s.Lo, ctx.Prof(), collect)
	} else {
		s.Tree.AscendRange(s.Lo, s.Hi, ctx.Prof(), collect)
	}
	if s.Latch != nil {
		s.Latch.RUnlock()
	}
	if s.Reverse {
		for i, j := 0, len(s.tids)-1; i < j; i, j = i+1, j-1 {
			s.tids[i], s.tids[j] = s.tids[j], s.tids[i]
		}
	}
	if s.buf == nil {
		s.buf = make(expr.Row, s.NAtts)
	}
	return nil
}

// Next implements Node.
func (s *IndexScan) Next(ctx *Ctx) (expr.Row, bool, error) {
	if err := ctx.Canceled(); err != nil {
		return nil, false, err
	}
	for s.pos < len(s.tids) {
		tid := s.tids[s.pos]
		s.pos++
		tup, release, ok, err := s.Heap.Get(tid, ctx.Snap, ctx.Prof())
		if err != nil {
			return nil, false, err
		}
		if !ok {
			// The index keeps one entry per version, so a collected TID
			// may be a version invisible to this snapshot, or one vacuum
			// reclaimed since Open. Skip it; at most one version per key
			// is visible.
			continue
		}
		ctx.Prof().Add(profile.CompExec, profile.ExecNodeTuple)
		s.Deform(tup, s.buf, s.NAtts, ctx.Prof())
		// Copy before unpin: the deformed datums alias the page. The copy
		// only has to outlive the pin until the following Next, so one
		// reused arena serves every row.
		s.out.reuse()
		row := s.out.copyRow(s.buf)
		release()
		return row, true, nil
	}
	return nil, false, nil
}

// Close implements Node.
func (s *IndexScan) Close(*Ctx) {}

// Schema implements Node.
func (s *IndexScan) Schema() []ColInfo { return s.cols }

// ValuesNode emits a fixed list of rows (used for constant subplans and
// tests).
type ValuesNode struct {
	Rows []expr.Row
	Cols []ColInfo
	pos  int
}

// Open implements Node.
func (v *ValuesNode) Open(*Ctx) error {
	v.pos = 0
	return nil
}

// Next implements Node.
func (v *ValuesNode) Next(ctx *Ctx) (expr.Row, bool, error) {
	if v.pos >= len(v.Rows) {
		return nil, false, nil
	}
	row := v.Rows[v.pos]
	v.pos++
	ctx.Prof().Add(profile.CompExec, profile.ExecNodeTuple)
	return row, true, nil
}

// Close implements Node.
func (v *ValuesNode) Close(*Ctx) {}

// Schema implements Node.
func (v *ValuesNode) Schema() []ColInfo { return v.Cols }
