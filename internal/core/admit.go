package core

import (
	"sync/atomic"
)

// This file is the Bee Maker's single admission path (DESIGN.md §17).
// Every compile entry point names its bee and hands admit a compile
// function; admit runs gating, compile, and registration in one fixed
// order, driven by the per-kind policy table. Relation bees are the one
// exception: they are built with the relation and have no fallback.

// Bee kinds: the kind half of the (kind, name) key space shared by the bee
// cache, the quarantine, the tier table, and benefit attribution.
const (
	KindRelation = "relation"
	KindEVP      = "query/EVP"
	KindEVA      = "query/EVA"
	KindEVJ      = "query/EVJ"
	KindIDX      = "index/IDX"
	KindTxn      = "txn"
)

// Bee is the descriptor of one admitted bee. There is one per (kind,
// name), shared by every form of the bee (row, batch, fused) and every
// plan that carries it; executor nodes hold it in place of separate
// identity, counter, and usage fields.
type Bee struct {
	Kind string
	Name string
	// Usage is the benefit attribution entry; nil for kinds no executor
	// times (IDX) and for relation bees without a specialized deform
	// program. BeeUsage methods are nil-safe.
	Usage *BeeUsage

	calls *atomic.Int64 // routine-class counter (bees.calls.*), nil if none
	m     *Module
}

// NoteCalls adds n invocations to the bee's routine-class call counter.
// Executor nodes count locally and report once at Close. Nil-safe.
func (b *Bee) NoteCalls(n int64) {
	if b != nil && b.calls != nil && n > 0 {
		b.calls.Add(n)
	}
}

// PanicPoint is the injected-panic failpoint (InjectBeePanic): every bee
// form calls it once per invocation, batch forms once per batch.
func (b *Bee) PanicPoint() {
	if b.m.inject.armed.Load() {
		b.m.injectPanic(b.Kind, b.Name)
	}
}

// kindPolicy is one row of the admission policy table.
type kindPolicy struct {
	// routine reports whether the kind's routine class is enabled; nil
	// means always (transaction bees are opted into by their caller).
	routine func(RoutineSet) bool
	// quarantine: a bee that panicked stays out of service.
	quarantine bool
	// tiered: the advisor's tier gate applies. Only the EVP family is
	// tiered, because the advisor only observes EVP demand.
	tiered bool
	// attributed: executors time the kind's invocations, so its bees get
	// a benefit entry (BeeUsage) carrying their cost pair.
	attributed bool
}

// IDX comparators are installed into B+trees at DDL time, where no
// replan could route around a quarantined one, and no B+tree path times
// them, so they carry no benefit entry.
var admission = map[string]kindPolicy{
	KindEVP: {routine: func(rs RoutineSet) bool { return rs.EVP }, quarantine: true, tiered: true, attributed: true},
	KindEVA: {routine: func(rs RoutineSet) bool { return rs.EVA }, quarantine: true, attributed: true},
	KindEVJ: {routine: func(rs RoutineSet) bool { return rs.EVJ }, quarantine: true, attributed: true},
	KindIDX: {routine: func(rs RoutineSet) bool { return rs.IDX }},
	KindTxn: {quarantine: true, attributed: true},
}

// compiled is what a compile function reports to admit: the executable
// form for the cache and, for attributed kinds, the per-row cost pair.
type compiled struct {
	source             string
	beeCost, stockCost int64
}

// admit runs the admission sequence for one bee, in this fixed order:
//
//  1. routine check: the kind's routine class must be enabled;
//  2. quarantine: a bee pulled from service after a panic stays out;
//  3. tier gate: the advisor may keep the bee on the stock path;
//  4. compile: false means the snippet library does not cover the shape;
//  5. registration: the first admission of (kind, name) creates its
//     descriptor and is what Stats counts; later ones find it, keeping
//     accumulated usage while refreshing the cost pair;
//  6. cache: the executable form enters the bee cache.
//
// A nil result means the caller keeps the generic routine, the paper's
// fallback. rel names the relation a fused bee reads, for the tier
// table's bee→relation association ("" otherwise).
func (m *Module) admit(kind, name, rel string, compile func() (compiled, bool)) *Bee {
	pol := admission[kind]
	if pol.routine != nil && !pol.routine(m.Routines()) {
		return nil
	}
	key := beeKey{kind: kind, name: name}
	if pol.quarantine && m.quar.has(key) {
		return nil
	}
	if pol.tiered && !m.tier.allow(key, rel) {
		return nil
	}
	c, ok := compile()
	if !ok {
		return nil
	}
	b, fresh := m.bees.register(m, key, pol.attributed, c.beeCost, c.stockCost, m.calls.of(kind))
	if fresh {
		m.mu.Lock()
		if kind == KindTxn {
			m.stats.TxnBees++
		} else {
			m.stats.QueryBees++
		}
		m.mu.Unlock()
	} else {
		m.readmitted.Add(1)
	}
	m.cache.put(key, c.source)
	return b
}

// Admissions reports how many admissions created a bee (fresh: the
// query and transaction bees Stats counts) and how many found one an
// earlier plan had built (again). The difference between two readings
// attributes one plan's bee work.
func (m *Module) Admissions() (fresh, again int64) {
	s := m.Stats()
	return int64(s.QueryBees + s.TxnBees), m.readmitted.Load()
}
