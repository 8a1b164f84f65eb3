package core

// Transaction bees — the fourth bee kind, extending the paper's
// relation/tuple/query taxonomy across statement boundaries. A
// transaction bee is a whole OLTP transaction (a TPC-C body or a
// server-side PREPARE TRANSACTION unit) fused into one executable: the
// engine pre-resolves every table handle, index tree, and deform/form
// routine at compile time, computes one latch-acquisition plan for the
// whole unit, and commits with a single WAL record. The module's role
// here is identity and bookkeeping: transaction bees live in the same
// (kind, name) cache/quarantine/benefit space as query bees, so the
// shell's \cache view, the admin /bees endpoint, and the panic
// failpoint all cover them with no extra plumbing.

// Per-operation abstract instruction costs used for transaction-bee
// benefit attribution. The statement-at-a-time path pays, for every
// point operation, a catalog/handle map lookup, a table latch
// acquire/release pair, and an undo closure that re-acquires the latch
// on rollback; the fused path pays only the operation itself plus an
// append to a plain undo slice. The constants mirror the granularity of
// stockExprCost and friends in benefit.go: coarse abstract instruction
// counts, good enough to rank bees, not a cycle model.
const (
	// TxnOpStockCost is the per-operation overhead of the
	// statement-at-a-time path (handle lookup + latch pair + wrapped
	// undo + per-statement begin/commit amortization).
	TxnOpStockCost = 24
	// TxnOpBeeCost is the per-operation overhead of the fused path
	// (pre-resolved handle, latches already held, plain undo append).
	TxnOpBeeCost = 6
)

// RegisterTxnBee admits a compiled whole-transaction bee into the cache
// and benefit tables and returns its descriptor. It reports ok=false
// without registering when the bee is quarantined — the caller must
// stay on the statement-at-a-time path. Re-registering after a replan
// keeps accumulated usage and does not double-count the bee.
func (m *Module) RegisterTxnBee(name, source string, beeCost, stockCost int64) (*Bee, bool) {
	b := m.admit(KindTxn, name, "", func() (compiled, bool) {
		return compiled{source: source, beeCost: beeCost, stockCost: stockCost}, true
	})
	return b, b != nil
}

// TxnBeeAllowed reports whether a transaction bee may run: false while
// it is quarantined after a panic.
func (m *Module) TxnBeeAllowed(name string) bool {
	return !m.quar.has(beeKey{kind: KindTxn, name: name})
}
