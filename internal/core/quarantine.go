package core

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
)

// This file implements bee quarantine, the runtime half of the paper's
// fallback behaviour: the bee caller already falls back to the generic
// routine when a bee is unavailable (§IV); quarantine makes a bee that
// panicked at runtime unavailable, so the same fallback transparently
// re-runs the query on the stock path. Quarantine is keyed on the bee
// cache's (kind, name) space and checked at compile time — the per-tuple
// hot path pays nothing.
//
// Query bees (EVP/EVA/EVJ) and transaction bees are quarantined; the
// admission policy table (admit.go) says which kinds. Relation bees
// (GCL/SCL) never are: they deform specialized storage that the generic
// routines cannot read, so they have no fallback and a fault there is
// surfaced as an error instead. IDX comparators are installed into
// B+trees at DDL time, so no replan could route around them either.

// quarantine tracks currently quarantined bees plus a cumulative count
// for metrics. It has its own lock so compile paths never nest it with
// the module lock.
type quarantine struct {
	mu    sync.Mutex
	set   map[beeKey]struct{}
	total int64
}

func (q *quarantine) add(k beeKey) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.set == nil {
		q.set = make(map[beeKey]struct{})
	}
	if _, dup := q.set[k]; dup {
		return false
	}
	q.set[k] = struct{}{}
	q.total++
	return true
}

func (q *quarantine) has(k beeKey) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	_, ok := q.set[k]
	return ok
}

func (q *quarantine) clear() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := len(q.set)
	q.set = nil
	return n
}

func (q *quarantine) size() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.set)
}

// Quarantine marks one bee as unusable; subsequent compiles of the same
// bee return the generic-fallback signal (nil, false). It reports
// whether the bee was newly quarantined — the engine retries a panicked
// query only when at least one bee actually left service, which
// guarantees the retry runs a different configuration.
func (m *Module) Quarantine(kind, name string) bool {
	return m.quar.add(beeKey{kind: kind, name: name})
}

// IsQuarantined reports whether the bee is currently quarantined.
func (m *Module) IsQuarantined(kind, name string) bool {
	return m.quar.has(beeKey{kind: kind, name: name})
}

// ClearQuarantine returns every quarantined bee to service (operator
// action, e.g. after a fixed snippet library is deployed) and reports
// how many were lifted.
func (m *Module) ClearQuarantine() int { return m.quar.clear() }

// QuarantinedBees returns the cumulative number of quarantine events —
// the monotone counter surfaced as the bees_quarantined metric.
func (m *Module) QuarantinedBees() int64 {
	m.quar.mu.Lock()
	defer m.quar.mu.Unlock()
	return m.quar.total
}

// CacheEntries lists the cached bees like Cache().Entries(), with each
// entry's quarantine status filled in (the \bees shell view).
func (m *Module) CacheEntries() []CacheEntry {
	entries := m.cache.Entries()
	inCache := make(map[beeKey]struct{}, len(entries))
	for i := range entries {
		key := beeKey{kind: entries[i].Kind, name: entries[i].Name}
		inCache[key] = struct{}{}
		entries[i].Quarantined = m.quar.has(key)
		if st, ok := m.tier.get(key); ok {
			entries[i].Tier = st.String()
		}
	}
	// Demoted bees were evicted from the cache; append phantom rows so
	// the advisor's decisions stay visible in \cache and /bees.
	for _, ti := range m.tier.snapshot() {
		if ti.State != TierDemoted {
			continue
		}
		if _, ok := inCache[beeKey{kind: ti.Kind, name: ti.Name}]; ok {
			continue
		}
		entries = append(entries, CacheEntry{
			Kind: ti.Kind, Name: ti.Name,
			Quarantined: m.quar.has(beeKey{kind: ti.Kind, name: ti.Name}),
			Tier:        ti.StateName,
		})
	}
	return entries
}

// --- Chaos failpoint: injected bee panics ---

// panicInjector arms compiled bee closures to panic, exercising the
// quarantine path from tests and the chaos harness. Disarmed cost on the
// per-tuple path is one atomic load.
type panicInjector struct {
	armed  atomic.Bool
	mu     sync.Mutex
	kind   string // "" matches any kind
	substr string // "" matches any name
}

// InjectBeePanic arms the failpoint: every invocation of a compiled bee
// whose kind equals kind (or kind == "") and whose name contains substr
// (or substr == "") panics until ClearBeePanic.
func (m *Module) InjectBeePanic(kind, substr string) {
	m.inject.mu.Lock()
	m.inject.kind, m.inject.substr = kind, substr
	m.inject.mu.Unlock()
	m.inject.armed.Store(true)
}

// ClearBeePanic disarms the failpoint.
func (m *Module) ClearBeePanic() { m.inject.armed.Store(false) }

// injectPanic panics if the armed failpoint matches the bee.
func (m *Module) injectPanic(kind, name string) {
	m.inject.mu.Lock()
	k, s := m.inject.kind, m.inject.substr
	m.inject.mu.Unlock()
	if (k == "" || k == kind) && (s == "" || strings.Contains(name, s)) {
		panic(fmt.Sprintf("injected bee panic: %s %q", kind, name))
	}
}
