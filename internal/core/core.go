// Package core implements the paper's contribution: the Generic Bee
// Module. It creates and manages bees — specialized code fragments
// obtained by dynamic specialization on variables that are invariant
// across the query-evaluation loop — and exposes the API the DBMS calls
// instead of its generic routines.
//
// The taxonomy (paper §III) maps onto this package as follows:
//
//   - Relation bees (created at schema-definition time) carry the GCL
//     ("GetColumnsToLongs", the specialized slot_deform_tuple) and SCL
//     ("SetColumnsFromLongs", the specialized heap_fill_tuple) routines,
//     specialized on attribute count, lengths, alignments, offsets, and
//     nullability. See relbee.go.
//
//   - Tuple bees (created during insert/update) dictionary-encode
//     annotated low-cardinality attribute values into per-relation data
//     sections; stored tuples carry a beeID and omit those values. See
//     tuplebee.go.
//
//   - Query bees (created at plan time) carry the EVP (specialized
//     predicate evaluation) and EVJ (specialized join qualification)
//     routines, with operators, attribute ordinals and constants inserted
//     into pre-compiled routine variants. See querybee.go.
//
// Bee creation never invokes a compiler in the query path: every routine
// is assembled from pre-compiled typed snippets (package-level closures)
// parameterized with the specializing values — the Go analogue of the
// paper's pre-compiled ELF templates with constants patched into the
// object code. Every bee except relation bees is made through one
// admission path (admit.go). The bee cache, placement optimizer, and
// collector live in cache.go.
package core

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"microspec/internal/catalog"
	"microspec/internal/expr"
	"microspec/internal/profile"
	"microspec/internal/storage/tuple"
	"microspec/internal/types"
)

// RoutineSet selects which bee routines the module applies, mirroring the
// paper's Figure 7 ablation (GCL / GCL+EVP / GCL+EVP+EVJ). SCL rides with
// GCL on the modification path. TupleBees additionally enables
// attribute-value specialization; it changes the stored tuple format of
// annotated relations, so it must be chosen before data is loaded.
type RoutineSet struct {
	GCL       bool
	SCL       bool
	EVP       bool
	EVJ       bool
	TupleBees bool

	// EVA and IDX are the extensions the paper's §VIII names as future
	// work: micro-specialized aggregation (compiled aggregate-input
	// evaluation, see CompileScalar) and micro-specialized index-key
	// comparison (see CompileIndexCmp).
	EVA bool
	IDX bool
}

// AllRoutines enables every micro-specialization, including the paper's
// future-work extensions (EVA, IDX).
var AllRoutines = RoutineSet{GCL: true, SCL: true, EVP: true, EVJ: true, TupleBees: true, EVA: true, IDX: true}

// Stock disables every micro-specialization (the stock DBMS).
var Stock = RoutineSet{}

// Stats counts bee-module activity.
type Stats struct {
	RelationBees int
	TupleBees    int
	QueryBees    int
	// TxnBees counts compiled whole-transaction bees (see txnbee.go).
	TxnBees  int
	GCLCalls int64
	SCLCalls int64
	EVPCalls int64
	EVJCalls int64
	EVACalls int64
	// Quarantined is the cumulative count of quarantine events (bees
	// pulled from service after a panic); QuarantinedNow is how many are
	// currently out of service.
	Quarantined    int64
	QuarantinedNow int
}

// callCounters holds the per-tuple invocation counts updated on hot
// paths; they are atomics so the per-tuple routines never take the
// module lock.
type callCounters struct {
	gcl, scl, evp, evj, eva atomic.Int64
}

// of returns the call counter of a query-bee kind's routine class.
func (c *callCounters) of(kind string) *atomic.Int64 {
	switch kind {
	case KindEVP:
		return &c.evp
	case KindEVA:
		return &c.eva
	case KindEVJ:
		return &c.evj
	}
	return nil
}

// Module is the Generic Bee Module: one per database.
type Module struct {
	mu       sync.RWMutex
	routines RoutineSet
	relBees  map[catalog.RelID]*RelationBee
	cache    *BeeCache
	place    *Placement
	stats    Stats
	calls    callCounters
	quar     quarantine
	inject   panicInjector
	bees     beeTable
	tier     tierTable
	// readmitted counts admissions that found an existing bee (see
	// Admissions).
	readmitted atomic.Int64
}

// NewModule returns a bee module with the given routine set.
func NewModule(rs RoutineSet) *Module {
	return &Module{
		routines: rs,
		relBees:  make(map[catalog.RelID]*RelationBee),
		cache:    newBeeCache(),
		place:    newPlacement(),
	}
}

// Routines returns the active routine set.
func (m *Module) Routines() RoutineSet {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.routines
}

// SetRoutines reconfigures which routines are invoked. Disabling
// TupleBees after relations were created with specialized storage is
// rejected: the stored format depends on it.
func (m *Module) SetRoutines(rs RoutineSet) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !rs.TupleBees && m.routines.TupleBees {
		for _, rb := range m.relBees {
			if rb.DataSections != nil {
				return fmt.Errorf("core: cannot disable tuple bees: relation %s has specialized storage", rb.Rel.Name)
			}
		}
	}
	if !rs.GCL {
		for _, rb := range m.relBees {
			if rb.DataSections != nil {
				return fmt.Errorf("core: cannot disable GCL: relation %s has specialized storage that only GCL can deform", rb.Rel.Name)
			}
		}
	}
	m.routines = rs
	return nil
}

// SpecMaskFor computes the tuple-bee storage mask for a schema: with
// TupleBees enabled, every annotated low-cardinality attribute is
// specialized out of the stored tuple. The engine passes the result to
// catalog.CreateRelation. A nil return means stock storage.
func (m *Module) SpecMaskFor(schema catalog.Schema) *catalog.SpecInfo {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if !m.routines.TupleBees {
		return nil
	}
	mask := make([]bool, len(schema.Attrs))
	n := 0
	for i, a := range schema.Attrs {
		if a.LowCard && a.NotNull {
			mask[i] = true
			n++
		}
	}
	if n == 0 {
		return nil
	}
	return &catalog.SpecInfo{Specialized: mask, NumSpecialized: n}
}

// OnCreateRelation is called by the DDL path after the relation is
// cataloged ("Relation bees are created at relation schema definition
// time"). It builds the relation bee (GCL and SCL routines) and, if the
// relation has specialized storage, its data sections.
func (m *Module) OnCreateRelation(rel *catalog.Relation) *RelationBee {
	m.mu.Lock()
	defer m.mu.Unlock()
	rb := makeRelationBee(rel)
	m.relBees[rel.ID] = rb
	m.stats.RelationBees++
	m.cache.put(beeKey{kind: KindRelation, name: rel.Name}, rb.Source)
	m.place.assign(rb.Source)
	m.describeRelationBee(rb)
	return rb
}

// OnDropRelation garbage-collects the relation's bees (the Bee Collector:
// "garbage collects dead bees, e.g., those not used anymore due to
// relation deletion").
func (m *Module) OnDropRelation(rel *catalog.Relation) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.relBees[rel.ID]; ok {
		delete(m.relBees, rel.ID)
		m.cache.drop(beeKey{kind: KindRelation, name: rel.Name})
	}
}

// OnSchemaChange rebuilds a relation bee after the relation's schema
// metadata changed (the Bee Reconstruction component).
func (m *Module) OnSchemaChange(rel *catalog.Relation) *RelationBee {
	m.mu.Lock()
	defer m.mu.Unlock()
	old := m.relBees[rel.ID]
	rb := makeRelationBee(rel)
	if old != nil {
		rb.DataSections = old.DataSections // data sections survive metadata-only changes
	}
	m.relBees[rel.ID] = rb
	m.cache.put(beeKey{kind: KindRelation, name: rel.Name}, rb.Source)
	m.describeRelationBee(rb)
	return rb
}

// describeRelationBee attaches the relation bee's descriptor. Nullable
// relations have no specialized deform program (gclCost nil) and thus no
// deform benefit to attribute: their descriptor carries only the GCL
// call counter.
func (m *Module) describeRelationBee(rb *RelationBee) {
	rel := rb.Rel
	if natts := len(rel.Attrs); rb.gclCost != nil {
		rb.bee, _ = m.bees.register(m, beeKey{kind: KindRelation, name: rel.Name}, true,
			rb.gclCost[natts], genericDeformCost(rel, natts), &m.calls.gcl)
		return
	}
	rb.bee = &Bee{Kind: KindRelation, Name: rel.Name, calls: &m.calls.gcl, m: m}
}

// GCLBee returns the descriptor of rel's relation bee when scans deform
// it through GCL, nil when they use the generic loop.
func (m *Module) GCLBee(rel *catalog.Relation) *Bee {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if rb := m.relBees[rel.ID]; rb != nil && m.routines.GCL {
		return rb.bee
	}
	return nil
}

// RelationBeeFor returns the relation bee, or nil if none exists.
func (m *Module) RelationBeeFor(rel *catalog.Relation) *RelationBee {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.relBees[rel.ID]
}

// DeformFunc extracts the first natts attributes of a stored tuple into
// values — the signature shared by the generic slot_deform_tuple wrapper
// and the GCL bee routine.
type DeformFunc func(tup []byte, values []types.Datum, natts int, prof *profile.Counters)

// Deformer returns the deform routine the executor should use for rel:
// the GCL bee when enabled (the Bee Caller path), otherwise the generic
// interpreted loop. Relations with specialized storage require GCL.
func (m *Module) Deformer(rel *catalog.Relation) (DeformFunc, error) {
	m.mu.RLock()
	rb := m.relBees[rel.ID]
	useGCL := m.routines.GCL
	m.mu.RUnlock()
	if useGCL && rb != nil {
		return rb.GCL, nil
	}
	if rel.Spec != nil {
		return nil, fmt.Errorf("core: relation %s has specialized storage but GCL is disabled", rel.Name)
	}
	return func(tup []byte, values []types.Datum, natts int, prof *profile.Counters) {
		tuple.SlotDeform(rel, tup, values, natts, prof)
	}, nil
}

// BatchDeformFunc is the batch form of DeformFunc: it extracts the first
// natts attributes of every tuple in tups into the corresponding rows of
// out (len(out) ≥ len(tups), each row at least natts wide). The batch
// executor hands it a whole pinned heap page at a time, so the deform
// loop — specialized or generic — runs without re-entering the caller
// per tuple.
type BatchDeformFunc func(tups [][]byte, out []expr.Row, natts int, prof *profile.Counters)

// genericBatchDeform wraps the generic interpreted deform loop in the
// batch signature (the stock engine's page-at-a-time path).
func genericBatchDeform(rel *catalog.Relation) BatchDeformFunc {
	return func(tups [][]byte, out []expr.Row, natts int, prof *profile.Counters) {
		for i, tup := range tups {
			tuple.SlotDeform(rel, tup, out[i], natts, prof)
		}
	}
}

// BatchDeformer returns the page-wise deform routine for rel: the
// relation bee's DeformBatch form when GCL is enabled, otherwise the
// generic loop wrapped in the batch signature. Mirrors Deformer.
func (m *Module) BatchDeformer(rel *catalog.Relation) (BatchDeformFunc, error) {
	m.mu.RLock()
	rb := m.relBees[rel.ID]
	useGCL := m.routines.GCL
	m.mu.RUnlock()
	if useGCL && rb != nil {
		return rb.DeformBatch, nil
	}
	if rel.Spec != nil {
		return nil, fmt.Errorf("core: relation %s has specialized storage but GCL is disabled", rel.Name)
	}
	return genericBatchDeform(rel), nil
}

// FormFunc forms the stored bytes of a tuple from its values.
type FormFunc func(values []types.Datum, prof *profile.Counters) ([]byte, error)

// Former returns the fill routine for rel: tuple-bee resolution plus the
// SCL bee when enabled, the generic heap_fill_tuple otherwise. The engine
// caches the returned closure so the per-tuple path never takes the
// module lock.
func (m *Module) Former(rel *catalog.Relation) FormFunc {
	m.mu.RLock()
	rb := m.relBees[rel.ID]
	useSCL := m.routines.SCL
	m.mu.RUnlock()

	natts := len(rel.Attrs)
	var ds *DataSections
	if rb != nil {
		ds = rb.DataSections
	}
	if useSCL && rb != nil {
		scl := rb.SCL
		counter := &m.calls.scl
		return func(values []types.Datum, prof *profile.Counters) ([]byte, error) {
			if len(values) != natts {
				return nil, fmt.Errorf("relation %s: %d values for %d attributes", rel.Name, len(values), natts)
			}
			var beeID uint16
			if ds != nil {
				var err error
				beeID, err = ds.ResolveBee(values, prof)
				if err != nil {
					return nil, err
				}
			}
			counter.Add(1)
			return scl(values, beeID, prof)
		}
	}
	return func(values []types.Datum, prof *profile.Counters) ([]byte, error) {
		if len(values) != natts {
			return nil, fmt.Errorf("relation %s: %d values for %d attributes", rel.Name, len(values), natts)
		}
		var beeID uint16
		if ds != nil {
			var err error
			beeID, err = ds.ResolveBee(values, prof)
			if err != nil {
				return nil, err
			}
		}
		return tuple.Form(rel, values, beeID, prof)
	}
}

// FormTuple forms the stored bytes for values — the uncached convenience
// entry point (the engine caches Former closures for hot paths).
func (m *Module) FormTuple(rel *catalog.Relation, values []types.Datum, prof *profile.Counters) ([]byte, error) {
	return m.Former(rel)(values, prof)
}

// Pred is an admitted EVP or EVA bee: one compiled expression with its
// row form (Eval) and batch forms (Select for predicates, EvalBatch for
// aggregate inputs). The planner compiles an expression once and every
// executor form of it shares this bee. The batch forms run the
// failpoint and cost accounting once per batch, not once per row.
type Pred struct {
	*Bee
	fn   predFunc
	cost int64
	// col is the ordinal of a bare column reference, -1 otherwise: the
	// batch EVA form then copies the column without calling fn.
	col int
}

// Eval evaluates the expression over one row.
func (p *Pred) Eval(row expr.Row, ctx *expr.Ctx) types.Datum {
	p.PanicPoint()
	ctx.Prof.Add(profile.CompExpr, p.cost)
	return p.fn(row)
}

// Select is the batch form of an EVP bee: it evaluates the predicate over
// rows (restricted to the cand selection vector when cand is non-nil)
// and appends the ordinals of passing rows to out.
func (p *Pred) Select(rows []expr.Row, cand []int32, out []int32, ctx *expr.Ctx) []int32 {
	p.PanicPoint()
	fn := p.fn
	if cand != nil {
		ctx.Prof.Add(profile.CompExpr, p.cost*int64(len(cand)))
		for _, i := range cand {
			if v := fn(rows[i]); !v.IsNull() && v.Bool() {
				out = append(out, i)
			}
		}
		return out
	}
	ctx.Prof.Add(profile.CompExpr, p.cost*int64(len(rows)))
	for i := range rows {
		if v := fn(rows[i]); !v.IsNull() && v.Bool() {
			out = append(out, int32(i))
		}
	}
	return out
}

// EvalBatch is the batch form of an EVA bee: it evaluates the expression
// for every live row of a batch (cand nil means all of rows), appending
// the results to out in live-row order.
func (p *Pred) EvalBatch(rows []expr.Row, cand []int32, out []types.Datum, ctx *expr.Ctx) []types.Datum {
	p.PanicPoint()
	n := len(rows)
	if cand != nil {
		n = len(cand)
	}
	ctx.Prof.Add(profile.CompExpr, p.cost*int64(n))
	if idx := p.col; idx >= 0 {
		if cand != nil {
			for _, i := range cand {
				out = append(out, rows[i][idx])
			}
			return out
		}
		for i := range rows {
			out = append(out, rows[i][idx])
		}
		return out
	}
	fn := p.fn
	if cand != nil {
		for _, i := range cand {
			out = append(out, fn(rows[i]))
		}
		return out
	}
	for i := range rows {
		out = append(out, fn(rows[i]))
	}
	return out
}

// compileExpr admits an EVP or EVA bee for e.
func (m *Module) compileExpr(kind string, e expr.Expr) (*Pred, bool) {
	if e == nil {
		return nil, false
	}
	name := e.String()
	p := &Pred{col: -1}
	p.Bee = m.admit(kind, name, "", func() (compiled, bool) {
		p.fn, p.cost = compilePred(e)
		if p.fn == nil {
			return compiled{}, false
		}
		source := strings.TrimPrefix(kind, "query/") + " " + name
		return compiled{source: source, beeCost: p.cost, stockCost: stockExprCost(e)}, true
	})
	if p.Bee == nil {
		return nil, false
	}
	if v, ok := e.(*expr.Var); ok {
		p.col = v.Idx
	}
	return p, true
}

// CompilePredicate attempts to create an EVP query bee for e. It returns
// (nil, false) when admission refuses it (EVP disabled, quarantined,
// tier-gated) or the expression contains shapes the snippet library does
// not cover (e.g. subqueries), in which case the executor keeps the
// generic interpreted evaluator — exactly the paper's fallback behaviour.
func (m *Module) CompilePredicate(e expr.Expr) (*Pred, bool) {
	return m.compileExpr(KindEVP, e)
}

// CompileScalar attempts to create an EVA query bee: a specialized
// evaluator for an aggregate's input expression, with the same snippet
// coverage as EVP (the paper's §VIII names aggregation as the next
// micro-specialization target; the per-tuple hot path of aggregation is
// evaluating the transition input).
func (m *Module) CompileScalar(e expr.Expr) (*Pred, bool) {
	return m.compileExpr(KindEVA, e)
}

// CompileIndexCmp attempts to create an IDX bee: a key comparator with
// the per-position kinds baked in, replacing the generic per-datum kind
// dispatch in B+tree descents (the index analogue of the paper's §VIII
// indexing target). The returned comparator handles prefix keys like
// btree.Compare. The bee is named by its key types, so indexes over
// different key types are distinct bees.
func (m *Module) CompileIndexCmp(keyTypes []types.T) (func(a, b []types.Datum) int, bool) {
	if len(keyTypes) == 0 {
		return nil, false
	}
	name := fmt.Sprint(keyTypes)
	var cmp func(a, b []types.Datum) int
	b := m.admit(KindIDX, name, "", func() (compiled, bool) {
		cmp = compileIndexCmp(keyTypes)
		return compiled{source: "IDX " + name}, true
	})
	return cmp, b != nil
}

// JoinKeyFuncs is an admitted EVJ bee for hash joins: specialized hash
// and equality over baked key ordinals and types.
type JoinKeyFuncs struct {
	*Bee
	// HashOuter hashes the outer row's key columns.
	HashOuter func(row expr.Row) uint64
	// HashInner hashes the inner row's key columns.
	HashInner func(row expr.Row) uint64
	// Cost is the abstract instruction cost of one Match invocation.
	Cost int64

	match func(outer, inner expr.Row) bool
}

// Match reports whether outer and inner rows join.
func (jk *JoinKeyFuncs) Match(outer, inner expr.Row) bool {
	jk.PanicPoint()
	return jk.match(outer, inner)
}

// CompileJoinKeys attempts to create an EVJ query bee for an equi-join on
// the given key ordinals. Returns (nil, false) when admission refuses it.
// The bee is named by both sides' ordinals and the key types, so joins
// of different key shapes are distinct bees.
func (m *Module) CompileJoinKeys(outerIdx, innerIdx []int, keyTypes []types.T) (*JoinKeyFuncs, bool) {
	if len(outerIdx) == 0 {
		return nil, false
	}
	var jk *JoinKeyFuncs
	name := fmt.Sprintf("keys%v/%v %v", outerIdx, innerIdx, keyTypes)
	b := m.admit(KindEVJ, name, "", func() (compiled, bool) {
		jk = compileJoinKeys(outerIdx, innerIdx, keyTypes)
		return compiled{source: "EVJ", beeCost: jk.Cost, stockCost: stockJoinQualCost(len(outerIdx))}, true
	})
	if b == nil {
		return nil, false
	}
	jk.Bee = b
	return jk, true
}

// NoteParallelPlan is called by the planner when it marks a plan
// parallel-safe: the partition workers share the plan's bee closures
// (stateless, with atomic counters), so the placement optimizer records
// the plan's bees as running on several cores at once.
func (m *Module) NoteParallelPlan() { m.place.MarkParallelSafe() }

// Stats returns a snapshot of bee-module statistics.
func (m *Module) Stats() Stats {
	m.mu.RLock()
	defer m.mu.RUnlock()
	s := m.stats
	s.GCLCalls = m.calls.gcl.Load()
	s.SCLCalls = m.calls.scl.Load()
	s.EVPCalls = m.calls.evp.Load()
	s.EVJCalls = m.calls.evj.Load()
	s.EVACalls = m.calls.eva.Load()
	s.Quarantined = m.QuarantinedBees()
	s.QuarantinedNow = m.quar.size()
	s.TupleBees = 0
	for _, rb := range m.relBees {
		if rb.DataSections != nil {
			s.TupleBees += rb.DataSections.NumBees()
		}
	}
	return s
}

// TupleBeeProbes sums the tuple-bee dictionary probe counts across every
// relation with specialized storage.
func (m *Module) TupleBeeProbes() int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var n int64
	for _, rb := range m.relBees {
		if rb.DataSections != nil {
			n += rb.DataSections.Probes()
		}
	}
	return n
}

// Cache exposes the bee cache for inspection and persistence.
func (m *Module) Cache() *BeeCache { return m.cache }

// Placement exposes the bee placement optimizer's report.
func (m *Module) Placement() *Placement { return m.place }
