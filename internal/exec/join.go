package exec

import (
	"fmt"

	"microspec/internal/core"
	"microspec/internal/expr"
	"microspec/internal/profile"
	"microspec/internal/types"
)

// JoinType enumerates the join semantics the executor supports — the
// variants the paper's EVJ bee routine enumerates and pre-compiles
// ("different types of joins (left, semi, anti, etc.)").
type JoinType int

// Join types.
const (
	InnerJoin JoinType = iota
	LeftJoin
	SemiJoin
	AntiJoin
)

// String names the join type.
func (j JoinType) String() string {
	return [...]string{"inner", "left", "semi", "anti"}[j]
}

// HashJoin is an equi-join: it builds a hash table on the inner child and
// probes with the outer child. Semi/anti joins emit only outer columns.
//
// Key evaluation has two forms, chosen at plan time:
//
//   - generic: per candidate pair, the JoinState analogue — hash with the
//     generic datum hasher and compare keys with the generic comparator,
//     charging JoinQualNode per pair;
//   - EVJ bee: the specialized hash/equality closures with baked key
//     ordinals and types, charging the bee's (smaller) cost.
type HashJoin struct {
	Outer, Inner Node
	// OuterKeys/InnerKeys are key column ordinals in each child's schema.
	OuterKeys, InnerKeys []int
	Type                 JoinType
	// Residual is an optional extra qual evaluated over the combined row
	// (inner and left joins only).
	Residual expr.Expr
	// ResidualBee is the EVP bee for Residual, if compiled.
	ResidualBee *core.Pred
	// EVJ is the specialized key-evaluation bee, nil for the generic path.
	EVJ *core.JoinKeyFuncs

	evjCalls int64
	resCalls int64

	// build holds copies of the inner rows in build order; index chains
	// their ids by key hash.
	build    rowArena
	index    hashIndex
	innerW   int
	cols     []ColInfo
	keyTypes []types.T

	// outerRow is the current outer row, valid while haveOuter. It is the
	// outer child's own row, not a copy: Next calls Outer.Next only once
	// it is done with the row, so the Node contract keeps it valid.
	outerRow  expr.Row
	haveOuter bool
	matches   []expr.Row
	matchPos  int
	combined  expr.Row
	// emitted records whether the current left-join outer row produced at
	// least one residual-surviving match (controls null extension).
	emitted bool
}

// Open implements Node: it (re)builds the hash table from the inner child.
func (h *HashJoin) Open(ctx *Ctx) error {
	if len(h.OuterKeys) != len(h.InnerKeys) || len(h.OuterKeys) == 0 {
		return fmt.Errorf("hash join: bad key lists %v/%v", h.OuterKeys, h.InnerKeys)
	}
	h.cols = h.Schema()
	innerCols := h.Inner.Schema()
	h.innerW = len(innerCols)
	h.keyTypes = make([]types.T, len(h.InnerKeys))
	for i, k := range h.InnerKeys {
		h.keyTypes[i] = innerCols[k].T
	}
	h.build, h.index = rowArena{}, hashIndex{}
	if err := h.buildTable(ctx); err != nil {
		return err
	}
	h.outerRow, h.haveOuter = nil, false
	h.matches = h.matches[:0]
	h.matchPos = 0
	if h.combined == nil {
		h.combined = make(expr.Row, len(h.Outer.Schema())+h.innerW)
	}
	return h.Outer.Open(ctx)
}

// buildTable copies the inner child's rows into the build arena and
// indexes them by key hash. The close is deferred so the inner subtree
// (and any buffer pins its scans hold) is released even when a bee panic
// unwinds through the drain loop.
func (h *HashJoin) buildTable(ctx *Ctx) error {
	if err := h.Inner.Open(ctx); err != nil {
		return err
	}
	defer h.Inner.Close(ctx)
	for {
		row, ok, err := h.Inner.Next(ctx)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		ctx.Prof().Add(profile.CompExec, profile.HashBuild)
		h.index.add(h.hashInner(row))
		h.build.add(row)
	}
}

func (h *HashJoin) hashInner(row expr.Row) uint64 {
	if h.EVJ != nil {
		return h.EVJ.HashInner(row)
	}
	return hashRow(row, h.InnerKeys)
}

func (h *HashJoin) hashOuter(row expr.Row) uint64 {
	if h.EVJ != nil {
		return h.EVJ.HashOuter(row)
	}
	return hashRow(row, h.OuterKeys)
}

// keysMatch evaluates the join qualification for one candidate pair —
// the per-pair code the EVJ bee specializes.
func (h *HashJoin) keysMatch(outer, inner expr.Row, ctx *Ctx) bool {
	if h.EVJ != nil {
		ctx.Prof().Add(profile.CompJoin, h.EVJ.Cost)
		h.evjCalls++
		return h.EVJ.Match(outer, inner)
	}
	// Generic join-qual evaluation: JoinState consultation per pair.
	ctx.Prof().Add(profile.CompJoin, profile.JoinQualNode*int64(len(h.OuterKeys)))
	for i := range h.OuterKeys {
		a, b := outer[h.OuterKeys[i]], inner[h.InnerKeys[i]]
		if a.IsNull() || b.IsNull() {
			return false
		}
		if a.Compare(b) != 0 {
			return false
		}
	}
	return true
}

func (h *HashJoin) residualOK(combined expr.Row, ctx *Ctx) bool {
	if h.Residual == nil {
		return true
	}
	var v types.Datum
	if h.ResidualBee != nil {
		h.resCalls++
		v = h.ResidualBee.Eval(combined, &ctx.Expr)
	} else {
		v = h.Residual.Eval(combined, &ctx.Expr)
	}
	return !v.IsNull() && v.Bool()
}

// Next implements Node.
func (h *HashJoin) Next(ctx *Ctx) (expr.Row, bool, error) {
	for {
		// Drain pending matches for the current outer row.
		if h.haveOuter && h.matchPos < len(h.matches) {
			inner := h.matches[h.matchPos]
			h.matchPos++
			combined := h.combine(h.outerRow, inner)
			if h.residualOK(combined, ctx) {
				switch h.Type {
				case SemiJoin:
					h.matchPos = len(h.matches) // one match suffices
					return h.outerRow, true, nil
				case AntiJoin:
					// A surviving match disqualifies the outer row.
					h.matchPos = len(h.matches)
					h.haveOuter = false
					continue
				case LeftJoin:
					h.emitted = true
					return combined, true, nil
				default:
					return combined, true, nil
				}
			}
			continue
		}
		// Left join: emit outer + nulls when no residual-surviving match.
		if h.haveOuter && h.Type == LeftJoin && !h.emitted {
			h.haveOuter = false
			return h.combineNulls(h.outerRow), true, nil
		}
		// Anti join: no (surviving) match at all → emit outer row.
		if h.haveOuter && h.Type == AntiJoin {
			h.haveOuter = false
			return h.outerRow, true, nil
		}
		h.haveOuter = false

		// Fetch the next outer row.
		outer, ok, err := h.Outer.Next(ctx)
		if err != nil || !ok {
			return nil, false, err
		}
		ctx.Prof().Add(profile.CompExec, profile.ExecNodeTuple+profile.HashProbe)
		h.matches = h.matches[:0]
		for id := h.index.first(h.hashOuter(outer)); id >= 0; id = h.index.next[id] {
			if inner := h.build.rows[id]; h.keysMatch(outer, inner, ctx) {
				h.matches = append(h.matches, inner)
			}
		}
		h.matchPos = 0
		h.emitted = false
		switch h.Type {
		case AntiJoin:
			if len(h.matches) == 0 {
				return outer, true, nil
			}
			if h.Residual == nil {
				continue // matched → excluded
			}
		case SemiJoin:
			if len(h.matches) == 0 {
				continue
			}
			if h.Residual == nil {
				h.matches = h.matches[:0]
				return outer, true, nil
			}
		case InnerJoin:
			if len(h.matches) == 0 {
				continue
			}
		}
		h.outerRow, h.haveOuter = outer, true
	}
}

func (h *HashJoin) combine(outer, inner expr.Row) expr.Row {
	copy(h.combined, outer)
	copy(h.combined[len(outer):], inner)
	return h.combined
}

func (h *HashJoin) combineNulls(outer expr.Row) expr.Row {
	copy(h.combined, outer)
	for i := len(outer); i < len(h.combined); i++ {
		h.combined[i] = types.Null
	}
	return h.combined
}

// Close implements Node.
func (h *HashJoin) Close(ctx *Ctx) {
	if h.EVJ != nil {
		h.EVJ.NoteCalls(h.evjCalls)
	}
	if h.ResidualBee != nil {
		h.ResidualBee.NoteCalls(h.resCalls)
	}
	h.evjCalls, h.resCalls = 0, 0
	h.Outer.Close(ctx)
	// Release the build side: a cached plan must not keep the inner rows
	// (nor, through matches and combined, pointers into them).
	h.build, h.index = rowArena{}, hashIndex{}
	h.matches = nil
	h.outerRow, h.haveOuter = nil, false
	clear(h.combined)
}

// Schema implements Node.
func (h *HashJoin) Schema() []ColInfo {
	outer := h.Outer.Schema()
	if h.Type == SemiJoin || h.Type == AntiJoin {
		return outer
	}
	return append(append([]ColInfo(nil), outer...), h.Inner.Schema()...)
}

// NLJoin is a nested-loop join for non-equi quals. The inner child must
// be rescannable (wrap it in Materialize).
type NLJoin struct {
	Outer, Inner Node
	Type         JoinType
	Qual         expr.Expr
	// QualBee is the EVP bee for Qual, if compiled.
	QualBee *core.Pred

	qualCalls int64
	// outerRow is the current outer row, valid while haveOuter: the outer
	// child's own row, which stays valid because Next reads no further
	// outer row until the inner child is exhausted for this one.
	outerRow  expr.Row
	haveOuter bool
	matched   bool
	combined  expr.Row
	innerOn   bool
}

// Open implements Node.
func (n *NLJoin) Open(ctx *Ctx) error {
	n.outerRow, n.haveOuter = nil, false
	n.innerOn = false
	if n.combined == nil {
		n.combined = make(expr.Row, len(n.Outer.Schema())+len(n.Inner.Schema()))
	}
	return n.Outer.Open(ctx)
}

func (n *NLJoin) qualOK(combined expr.Row, ctx *Ctx) bool {
	if n.Qual == nil {
		return true
	}
	var v types.Datum
	if n.QualBee != nil {
		n.qualCalls++
		v = n.QualBee.Eval(combined, &ctx.Expr)
	} else {
		ctx.Prof().Add(profile.CompJoin, profile.JoinQualNode)
		v = n.Qual.Eval(combined, &ctx.Expr)
	}
	return !v.IsNull() && v.Bool()
}

// Next implements Node.
func (n *NLJoin) Next(ctx *Ctx) (expr.Row, bool, error) {
	for {
		if !n.haveOuter {
			outer, ok, err := n.Outer.Next(ctx)
			if err != nil || !ok {
				return nil, false, err
			}
			ctx.Prof().Add(profile.CompExec, profile.ExecNodeTuple)
			n.outerRow, n.haveOuter = outer, true
			n.matched = false
			if err := n.Inner.Open(ctx); err != nil {
				return nil, false, err
			}
			n.innerOn = true
		}
		inner, ok, err := n.Inner.Next(ctx)
		if err != nil {
			return nil, false, err
		}
		if !ok {
			n.Inner.Close(ctx)
			n.innerOn = false
			outer := n.outerRow
			n.haveOuter = false
			switch n.Type {
			case LeftJoin:
				if !n.matched {
					copy(n.combined, outer)
					for i := len(outer); i < len(n.combined); i++ {
						n.combined[i] = types.Null
					}
					return n.combined, true, nil
				}
			case AntiJoin:
				if !n.matched {
					return outer, true, nil
				}
			}
			continue
		}
		copy(n.combined, n.outerRow)
		copy(n.combined[len(n.outerRow):], inner)
		if !n.qualOK(n.combined, ctx) {
			continue
		}
		n.matched = true
		switch n.Type {
		case SemiJoin:
			n.Inner.Close(ctx)
			n.innerOn = false
			n.haveOuter = false
			return n.outerRow, true, nil
		case AntiJoin:
			n.Inner.Close(ctx)
			n.innerOn = false
			n.haveOuter = false
			continue
		default:
			return n.combined, true, nil
		}
	}
}

// Close implements Node.
func (n *NLJoin) Close(ctx *Ctx) {
	if n.QualBee != nil {
		n.QualBee.NoteCalls(n.qualCalls)
	}
	n.qualCalls = 0
	if n.innerOn {
		n.Inner.Close(ctx)
		n.innerOn = false
	}
	n.Outer.Close(ctx)
	n.outerRow, n.haveOuter = nil, false
}

// Schema implements Node.
func (n *NLJoin) Schema() []ColInfo {
	outer := n.Outer.Schema()
	if n.Type == SemiJoin || n.Type == AntiJoin {
		return outer
	}
	return append(append([]ColInfo(nil), outer...), n.Inner.Schema()...)
}
