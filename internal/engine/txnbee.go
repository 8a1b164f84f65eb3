package engine

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"microspec/internal/core"
	"microspec/internal/exec"
	"microspec/internal/expr"
	"microspec/internal/index/btree"
	"microspec/internal/profile"
	"microspec/internal/storage/heap"
	"microspec/internal/txn"
	"microspec/internal/types"
)

// This file implements transaction bees — the fourth bee kind (see
// core/txnbee.go), fusing a whole OLTP transaction into one compiled
// unit. The statement-at-a-time path (Txn in txn.go) pays, for every
// point operation, a catalog map lookup, a table-latch acquire/release
// pair, and an undo closure that re-acquires the latch on rollback; a
// CompiledTxn pre-resolves every table handle, index tree, and
// deform/form routine once, computes one latch-acquisition plan up
// front (tables sorted by RelID, acquired once for the whole
// transaction), and commits with a single WAL record and one
// group-commit wait.
//
// Deadlock safety: the latch plan acquires table latches in canonical
// RelID order, and every other path in the engine (DML statements,
// interactive Txn operations, vacuum) holds at most one table latch at
// a time and never blocks on a second while holding the first — so the
// multi-latch fused path cannot form a cycle with them or with another
// fused transaction (both sort the same way). See docs/CONCURRENCY.md.
//
// Invalidation mirrors prepared statements (prepare.go): a DDL bump of
// db.ddlGen makes the next Run re-resolve its handles (txn_bee.replans);
// a panic inside the fused body quarantines the bee, rolls the
// transaction back, and surfaces a PanicError so the caller retries the
// same transaction statement-at-a-time (txn_bee.fallbacks).

// ErrTxnBeeUnavailable reports that a transaction bee cannot run —
// quarantined after a panic, or its compilation was refused. Callers
// fall back to the statement-at-a-time path.
var ErrTxnBeeUnavailable = errors.New("engine: transaction bee unavailable")

// TxnSpec declares a whole-transaction bee: the tables it touches
// (writes latched exclusively, reads shared) and the indexes it probes.
// Table and index ordinals — positions in Writes++Reads and in Indexes —
// are baked into the fused body at compile time, so execution does no
// name resolution at all.
type TxnSpec struct {
	Name    string
	Writes  []string // tables modified: latched exclusively
	Reads   []string // tables only read through indexes: latched shared
	Indexes []string // index names, each on a declared table
}

// txnTable is one pre-resolved table: handle, baked deform/form
// routines, and its latch mode in the fused latch plan.
type txnTable struct {
	rel   relHandle
	acc   *relAccess
	write bool
}

// txnResolved is one generation of a CompiledTxn's pre-resolved state;
// it is immutable once published and swapped wholesale on replan.
type txnResolved struct {
	ddlGen     uint64
	tables     []txnTable // spec order: Writes then Reads
	latchOrder []int      // indices into tables, sorted by RelID
	indexes    []txnIndex // spec order
}

type txnIndex struct {
	ix  *Index
	tbl int // ordinal of the owning table in txnResolved.tables
}

// CompiledTxn is a whole-transaction bee. Compile once with
// DB.CompileTxn, then Run the fused body any number of times from any
// goroutine; replans after DDL are transparent.
type CompiledTxn struct {
	db    *DB
	spec  TxnSpec
	bee   *core.Bee
	execs atomic.Int64
	mu    sync.Mutex // serializes replans; Run reads res lock-free
	res   atomic.Pointer[txnResolved]
}

// CompileTxn resolves spec into a transaction bee and registers it in
// the bee cache/benefit tables under kind "txn". It returns
// ErrTxnBeeUnavailable while the bee is quarantined.
func (db *DB) CompileTxn(spec TxnSpec) (*CompiledTxn, error) {
	db.mu.RLock()
	res, err := db.resolveTxn(spec)
	db.mu.RUnlock()
	if err != nil {
		return nil, err
	}
	ct := &CompiledTxn{db: db, spec: spec}
	ct.res.Store(res)
	if ct.bee, err = ct.register(res); err != nil {
		return nil, err
	}
	return ct, nil
}

// register (re-)admits the bee into the module's cache and benefit
// tables. The descriptor is one per name, so a replan's re-admission
// returns the bee CompileTxn stored. The per-operation cost pair is
// scaled by nothing: usage is reported in operations, so the benefit
// estimate is observed time × the per-op stock/bee overhead ratio.
func (ct *CompiledTxn) register(res *txnResolved) (*core.Bee, error) {
	bee, ok := ct.db.mod.RegisterTxnBee(ct.spec.Name, txnBeeSource(ct.spec, res),
		core.TxnOpBeeCost, core.TxnOpStockCost)
	if !ok {
		return nil, fmt.Errorf("%w: %s is quarantined", ErrTxnBeeUnavailable, ct.spec.Name)
	}
	return bee, nil
}

// txnBeeSource renders the fused unit's "object code" for the bee
// cache: the latch plan and pre-resolved index paths.
func txnBeeSource(spec TxnSpec, res *txnResolved) string {
	var b strings.Builder
	fmt.Fprintf(&b, "TXN %s latch[", spec.Name)
	for i, ti := range res.latchOrder {
		if i > 0 {
			b.WriteByte(' ')
		}
		t := res.tables[ti]
		mode := "r"
		if t.write {
			mode = "w"
		}
		fmt.Fprintf(&b, "%s:%s", t.rel.rel.Name, mode)
	}
	b.WriteString("] idx[")
	for i, name := range spec.Indexes {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(name)
	}
	b.WriteString("] commit=single")
	return b.String()
}

// resolveTxn pre-resolves spec's handles. Caller holds db.mu (any mode).
func (db *DB) resolveTxn(spec TxnSpec) (*txnResolved, error) {
	res := &txnResolved{ddlGen: db.ddlGen.Load()}
	seen := make(map[string]bool, len(spec.Writes)+len(spec.Reads))
	add := func(name string, write bool) error {
		if seen[name] {
			return fmt.Errorf("engine: txn %s declares table %s twice", spec.Name, name)
		}
		seen[name] = true
		rel, err := db.handleFor(name)
		if err != nil {
			return err
		}
		acc, err := db.accessFor(rel.rel)
		if err != nil {
			return err
		}
		res.tables = append(res.tables, txnTable{rel: rel, acc: acc, write: write})
		return nil
	}
	for _, n := range spec.Writes {
		if err := add(n, true); err != nil {
			return nil, err
		}
	}
	for _, n := range spec.Reads {
		if err := add(n, false); err != nil {
			return nil, err
		}
	}
	res.latchOrder = make([]int, len(res.tables))
	for i := range res.latchOrder {
		res.latchOrder[i] = i
	}
	sort.Slice(res.latchOrder, func(a, b int) bool {
		return res.tables[res.latchOrder[a]].rel.rel.ID < res.tables[res.latchOrder[b]].rel.rel.ID
	})
	byID := make(map[string]int, len(res.tables))
	for i, t := range res.tables {
		byID[t.rel.rel.Name] = i
	}
	for _, name := range spec.Indexes {
		ix, ok := db.indexes[name]
		if !ok {
			return nil, fmt.Errorf("engine: txn %s: no index %q", spec.Name, name)
		}
		ti, ok := byID[ix.Rel.Name]
		if !ok {
			return nil, fmt.Errorf("engine: txn %s: index %s is on undeclared table %s",
				spec.Name, name, ix.Rel.Name)
		}
		res.indexes = append(res.indexes, txnIndex{ix: ix, tbl: ti})
	}
	return res, nil
}

// NoteTxnBeeFallback counts a fused transaction that was retried
// statement-at-a-time by a caller driving CompiledTxn directly (the SQL
// path in txnstmt.go counts its own fallbacks).
func (db *DB) NoteTxnBeeFallback() { db.obs.txnBeeFallbacks.Inc() }

// Execs returns how many times the fused unit has run.
func (ct *CompiledTxn) Execs() int64 { return ct.execs.Load() }

// Name returns the bee's name.
func (ct *CompiledTxn) Name() string { return ct.spec.Name }

// current returns the pre-resolved state, replanning if DDL moved the
// schema generation since it was built. Caller holds db.mu shared.
func (ct *CompiledTxn) current() (*txnResolved, error) {
	res := ct.res.Load()
	if res.ddlGen == ct.db.ddlGen.Load() {
		return res, nil
	}
	ct.mu.Lock()
	defer ct.mu.Unlock()
	res = ct.res.Load()
	if res.ddlGen == ct.db.ddlGen.Load() {
		return res, nil
	}
	fresh, err := ct.db.resolveTxn(ct.spec)
	if err != nil {
		return nil, err
	}
	if _, err := ct.register(fresh); err != nil {
		return nil, err
	}
	ct.res.Store(fresh)
	ct.db.obs.txnBeeReplans.Inc()
	return fresh, nil
}

// Run executes one fused transaction: latch plan acquired up front,
// body run against pre-resolved handles through ft, single commit
// record, one group-commit wait. A non-nil error means the transaction
// rolled back (the body's error is returned; a body panic comes back as
// a *exec.PanicError after the bee is quarantined — retry
// statement-at-a-time). Run returns ErrTxnBeeUnavailable without doing
// anything while the bee is quarantined.
func (ct *CompiledTxn) Run(prof *profile.Counters, body func(ft *FastTxn) error) error {
	db := ct.db
	if db.recovering.Load() {
		return ErrRecovering
	}
	if !db.mod.TxnBeeAllowed(ct.spec.Name) {
		return fmt.Errorf("%w: %s is quarantined", ErrTxnBeeUnavailable, ct.spec.Name)
	}
	db.mu.RLock()
	res, err := ct.current()
	if err != nil {
		db.mu.RUnlock()
		return err
	}
	for _, ti := range res.latchOrder {
		t := &res.tables[ti]
		if t.write {
			t.rel.latch.Lock()
		} else {
			t.rel.latch.RLock()
		}
	}
	unlatch := func() {
		for i := len(res.latchOrder) - 1; i >= 0; i-- {
			t := &res.tables[res.latchOrder[i]]
			if t.write {
				t.rel.latch.Unlock()
			} else {
				t.rel.latch.RUnlock()
			}
		}
	}
	xid := db.tm.Begin()
	snap := db.tm.Snapshot(xid)
	ft := &FastTxn{db: db, prof: prof, id: xid, snap: snap, res: res}
	start := time.Now()
	err = runTxnBody(ct.bee, ft, body)
	if err != nil {
		// Roll back: latches are still held, so the undos replay directly.
		for i := len(ft.undo) - 1; i >= 0; i-- {
			_ = ft.undo[i]()
		}
		if len(ft.undo) > 0 {
			db.dataGen.Add(1)
		}
		db.logAbort(xid)
		db.tm.Abort(xid)
		snap.Release()
		unlatch()
		db.mu.RUnlock()
		if isConflict(err) {
			db.obs.txnConflicts.Inc()
		}
		var pe *exec.PanicError
		if errors.As(err, &pe) {
			db.mod.Quarantine(core.KindTxn, ct.spec.Name)
		}
		return err
	}
	lsn, err := db.logCommit(xid)
	if err != nil {
		// The commit record never reached the log: abort. The versions
		// stay stamped with the aborted xid, invisible until vacuum.
		db.tm.Abort(xid)
		snap.Release()
		unlatch()
		db.mu.RUnlock()
		return err
	}
	db.tm.Commit(xid)
	snap.Release()
	if len(ft.undo) > 0 {
		db.dataGen.Add(1)
	}
	for _, ti := range res.latchOrder {
		t := &res.tables[ti]
		if t.write {
			db.maybeVacuumLocked(t.rel, prof)
		}
	}
	unlatch()
	db.mu.RUnlock()
	ct.execs.Add(1)
	db.obs.txnBeeExecs.Inc()
	ct.bee.Usage.Note(ft.ops, time.Since(start).Nanoseconds())
	return db.waitDurable(lsn)
}

// runTxnBody runs the fused body behind a panic boundary: a panic
// (including the injected-failpoint kind) converts to *exec.PanicError
// so Run can quarantine the bee and the caller can fall back.
func runTxnBody(bee *core.Bee, ft *FastTxn, body func(ft *FastTxn) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = exec.NewPanicError(r)
		}
	}()
	bee.PanicPoint()
	return body(ft)
}

// FastTxn is the execution context a fused body runs against: the Txn
// point-access API with every per-operation overhead deleted. All table
// latches are already held (the latch plan), handles and deform/form
// routines are pre-resolved, and undo records append to a plain slice —
// rollback replays them while the latches are still held. Tables and
// indexes are addressed by their ordinal in the TxnSpec (position in
// Writes++Reads, and in Indexes).
type FastTxn struct {
	db   *DB
	prof *profile.Counters
	id   uint64
	snap *txn.Snapshot
	res  *txnResolved
	undo []func() error
	ops  int64
}

// Insert adds one row to table ordinal tb (must be a write table).
func (ft *FastTxn) Insert(tb int, values []types.Datum) error {
	_, undo, err := ft.db.insertRowLocked(ft.res.tables[tb].rel, values, ft.id, ft.prof)
	if err != nil {
		return err
	}
	ft.undo = append(ft.undo, undo)
	ft.ops++
	return nil
}

// UpdateRow replaces the row version at tid in table ordinal tb.
func (ft *FastTxn) UpdateRow(tb int, tid heap.TID, oldValues, newValues []types.Datum) error {
	undo, err := ft.db.applyUpdateLocked(ft.res.tables[tb].rel, tid, oldValues, newValues, ft.id, ft.prof)
	if err != nil {
		return err
	}
	ft.undo = append(ft.undo, undo)
	ft.ops++
	return nil
}

// DeleteRow stamps the row version at tid in table ordinal tb deleted.
func (ft *FastTxn) DeleteRow(tb int, tid heap.TID) error {
	undo, err := ft.db.deleteRowLocked(ft.res.tables[tb].rel, tid, ft.id, ft.prof)
	if err != nil {
		return err
	}
	ft.undo = append(ft.undo, undo)
	ft.ops++
	return nil
}

// fetch reads and deforms one visible tuple version from table ordinal
// tb through its baked deform routine.
func (ft *FastTxn) fetch(tb int, tid heap.TID) (expr.Row, bool, error) {
	t := &ft.res.tables[tb]
	tup, release, ok, err := t.rel.heap.Get(tid, ft.snap, ft.prof)
	if err != nil || !ok {
		return nil, false, err
	}
	defer release()
	values := make([]types.Datum, len(t.rel.rel.Attrs))
	t.acc.deform(tup, values, len(values), ft.prof)
	return exec.CloneRow(values), true, nil
}

// collectPrefix gathers TIDs under prefix. No latch is taken: the fused
// latch plan already holds the owning table's latch.
func (ft *FastTxn) collectPrefix(ix int, prefix btree.Key) []heap.TID {
	var tids []heap.TID
	ft.res.indexes[ix].ix.Tree.AscendPrefix(prefix, ft.prof, func(_ btree.Key, tid heap.TID) bool {
		tids = append(tids, tid)
		return true
	})
	return tids
}

// GetByIndex fetches the visible row whose key prefix equals key from
// index ordinal ix.
func (ft *FastTxn) GetByIndex(ix int, key []types.Datum) (expr.Row, heap.TID, bool, error) {
	ft.ops++
	tbl := ft.res.indexes[ix].tbl
	for _, tid := range ft.collectPrefix(ix, btree.Key(key)) {
		row, ok, err := ft.fetch(tbl, tid)
		if err != nil {
			return nil, heap.TID{}, false, err
		}
		if ok {
			return row, tid, true, nil
		}
	}
	return nil, heap.TID{}, false, nil
}

// ScanIndexPrefix visits every visible row under prefix in key order;
// fn returning false stops the scan. Positions are collected before fn
// runs, so fn may modify the same table.
func (ft *FastTxn) ScanIndexPrefix(ix int, prefix []types.Datum, fn func(row expr.Row, tid heap.TID) bool) error {
	ft.ops++
	tbl := ft.res.indexes[ix].tbl
	for _, tid := range ft.collectPrefix(ix, btree.Key(prefix)) {
		row, ok, err := ft.fetch(tbl, tid)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		if !fn(row, tid) {
			return nil
		}
	}
	return nil
}

// ScanIndexRange visits visible rows with lo <= key <= hi (prefix
// semantics on both bounds).
func (ft *FastTxn) ScanIndexRange(ix int, lo, hi []types.Datum, fn func(row expr.Row, tid heap.TID) bool) error {
	ft.ops++
	in := ft.res.indexes[ix]
	var tids []heap.TID
	in.ix.Tree.AscendRange(btree.Key(lo), btree.Key(hi), ft.prof, func(_ btree.Key, tid heap.TID) bool {
		tids = append(tids, tid)
		return true
	})
	for _, tid := range tids {
		row, ok, err := ft.fetch(in.tbl, tid)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		if !fn(row, tid) {
			return nil
		}
	}
	return nil
}

// LastByIndexPrefix returns the visible row with the greatest key under
// prefix.
func (ft *FastTxn) LastByIndexPrefix(ix int, prefix []types.Datum) (expr.Row, heap.TID, bool, error) {
	ft.ops++
	tbl := ft.res.indexes[ix].tbl
	tids := ft.collectPrefix(ix, btree.Key(prefix))
	for i := len(tids) - 1; i >= 0; i-- {
		row, ok, err := ft.fetch(tbl, tids[i])
		if err != nil {
			return nil, heap.TID{}, false, err
		}
		if ok {
			return row, tids[i], true, nil
		}
	}
	return nil, heap.TID{}, false, nil
}
