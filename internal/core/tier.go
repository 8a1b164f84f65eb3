package core

// This file implements bee tiering: the state machine the adaptive
// advisor (internal/advisor) drives to decide which query bees exist at
// all. Every EVP-family compile consults the tier table the same way it
// consults the quarantine, so tiering composes with the existing
// fallback guarantee: a refused compile means the generic interpreted
// path runs, with identical results.
//
// States (see docs/ADAPTIVE.md):
//
//	candidate  demand is being counted; compiles are refused while the
//	           advisor gate is on, so the stock path serves the query
//	compiled   the advisor promoted the bee; compiles proceed normally
//	pinned     persistently hot; exempt from cold-decay demotion
//	demoted    a guard assumption broke (quarantine, DDL, drift,
//	           negative measured benefit); compiles are refused even
//	           with the gate off, the cache entry is evicted, and —
//	           for sticky demotions — the key is written to the
//	           checkpoint manifest so a warm restart cannot resurrect it
//
// Hysteresis: a demoted entry holds its state for a configurable number
// of advisor cycles (hold), then re-enters candidate with zero heat —
// it must re-earn promotion, so a flapping guard cannot oscillate a bee
// in and out of the cache every cycle.

import (
	"sort"
	"sync"
	"sync/atomic"
)

// TierState is the advisor-visible lifecycle state of one bee.
type TierState uint8

// Tier states, in promotion order.
const (
	TierCandidate TierState = iota
	TierCompiled
	TierPinned
	TierDemoted
)

// String returns the lowercase state name used in JSON and shell output.
func (s TierState) String() string {
	switch s {
	case TierCandidate:
		return "candidate"
	case TierCompiled:
		return "compiled"
	case TierPinned:
		return "pinned"
	case TierDemoted:
		return "demoted"
	}
	return "unknown"
}

// TierInfo is one tier-table row, exported for the advisor and the
// /advisor endpoint.
type TierInfo struct {
	Kind      string    `json:"kind"`
	Name      string    `json:"name"`
	State     TierState `json:"-"`
	StateName string    `json:"state"`
	Heat      float64   `json:"heat"`
	Rels      []string  `json:"rels,omitempty"`
	Sticky    bool      `json:"sticky,omitempty"` // guard-break demotion (manifest-persisted)
	Hold      int       `json:"hold,omitempty"`   // cycles left before demoted → candidate
	// Usage is the bee's benefit attribution entry, nil for a bee never
	// admitted (a candidate the gate kept on the stock path).
	Usage *BeeUsage `json:"-"`
}

type tierEntry struct {
	state  TierState
	heat   float64
	rels   map[string]struct{}
	sticky bool
	hold   int
}

func (e *tierEntry) addRel(rel string) {
	if rel == "" {
		return
	}
	if e.rels == nil {
		e.rels = make(map[string]struct{}, 2)
	}
	e.rels[rel] = struct{}{}
}

// tierTable guards the tier state machine with its own mutex (like the
// quarantine): compiles consult it outside the Module lock.
type tierTable struct {
	mu   sync.Mutex
	gate atomic.Bool
	m    map[beeKey]*tierEntry
}

// allow reports whether a compile of key may proceed. With the gate off
// only a demoted entry refuses; with the gate on, unknown keys become
// candidates and accumulate demand until the advisor promotes them.
func (t *tierTable) allow(key beeKey, rel string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.m[key]
	if !t.gate.Load() {
		return e == nil || e.state != TierDemoted
	}
	if e == nil {
		if t.m == nil {
			t.m = make(map[beeKey]*tierEntry)
		}
		e = &tierEntry{state: TierCandidate}
		t.m[key] = e
	}
	e.addRel(rel)
	switch e.state {
	case TierCompiled, TierPinned:
		return true
	case TierDemoted:
		return false
	default:
		e.heat++
		return false
	}
}

// touch records demand from an executed plan that carried this bee.
// Plans only report compiled bees, so an unknown key means the bee was
// compiled before the gate went up — adopt it as compiled.
func (t *tierTable) touch(key beeKey, rels []string, weight float64) {
	if !t.gate.Load() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.m[key]
	if e == nil {
		if t.m == nil {
			t.m = make(map[beeKey]*tierEntry)
		}
		e = &tierEntry{state: TierCompiled}
		t.m[key] = e
	}
	for _, r := range rels {
		e.addRel(r)
	}
	e.heat += weight
}

// want records unserved demand: a plan executed a predicate the gate
// kept on the stock path. Only candidates accumulate (a demoted entry
// is holding, a promoted one should have compiled).
func (t *tierTable) want(key beeKey, rels []string, weight float64) {
	if !t.gate.Load() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.m[key]
	if e == nil {
		if t.m == nil {
			t.m = make(map[beeKey]*tierEntry)
		}
		e = &tierEntry{state: TierCandidate}
		t.m[key] = e
	}
	if e.state != TierCandidate {
		return
	}
	for _, r := range rels {
		e.addRel(r)
	}
	e.heat += weight
}

func (t *tierTable) promote(key beeKey) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.m[key]
	if e == nil || e.state != TierCandidate {
		return false
	}
	e.state = TierCompiled
	return true
}

func (t *tierTable) pin(key beeKey) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.m[key]
	if e == nil || e.state != TierCompiled {
		return false
	}
	e.state = TierPinned
	return true
}

// demote moves a compiled or pinned entry to demoted. It returns false
// if the entry was not in a promoted state, which is what makes every
// demotion trigger exactly-once: a condition that persists across
// cycles (a quarantine flag, a drifted sketch) finds the entry already
// demoted on the second look.
func (t *tierTable) demote(key beeKey, sticky bool, hold int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.m[key]
	if e == nil {
		if sticky {
			// Restoring a manifest denylist entry for a bee never seen
			// this run still needs a row to refuse future compiles.
			if t.m == nil {
				t.m = make(map[beeKey]*tierEntry)
			}
			t.m[key] = &tierEntry{state: TierDemoted, sticky: true, hold: hold}
			return true
		}
		return false
	}
	if e.state != TierCompiled && e.state != TierPinned {
		return false
	}
	e.state = TierDemoted
	e.sticky = sticky
	e.hold = hold
	e.heat = 0
	return true
}

// decay ages every entry: heat is multiplied by factor, and demoted
// entries count down their hold, re-entering candidate (with zero heat)
// when it expires.
func (t *tierTable) decay(factor float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, e := range t.m {
		e.heat *= factor
		if e.state == TierDemoted && e.hold > 0 {
			e.hold--
			if e.hold == 0 {
				e.state = TierCandidate
				e.sticky = false
				e.heat = 0
			}
		}
	}
}

func (t *tierTable) get(key beeKey) (TierState, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.m[key]
	if e == nil {
		return TierCandidate, false
	}
	return e.state, true
}

func (t *tierTable) snapshot() []TierInfo {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]TierInfo, 0, len(t.m))
	for k, e := range t.m {
		info := TierInfo{
			Kind: k.kind, Name: k.name,
			State: e.state, StateName: e.state.String(),
			Heat: e.heat, Sticky: e.sticky, Hold: e.hold,
		}
		for r := range e.rels {
			info.Rels = append(info.Rels, r)
		}
		sort.Strings(info.Rels)
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Heat != out[j].Heat {
			return out[i].Heat > out[j].Heat
		}
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// SetTierGating turns the advisor's compile gate on or off. With the
// gate off (the default) bees compile on first use exactly as before
// the advisor existed; sticky demotions are honored either way.
func (m *Module) SetTierGating(on bool) { m.tier.gate.Store(on) }

// TierGating reports whether the compile gate is up.
func (m *Module) TierGating() bool { return m.tier.gate.Load() }

// TierTouch records demand for a bee observed in an executed plan,
// associating it with the tables the plan read. weight lets the caller
// over-count queries that would benefit most (e.g. slow ones).
func (m *Module) TierTouch(kind, name string, rels []string, weight float64) {
	m.tier.touch(beeKey{kind: kind, name: name}, rels, weight)
}

// TierWant records unserved demand for a gated (still-candidate)
// predicate observed in an executed plan. Counted per execution, unlike
// the compile-time count, so prepared statements — which plan once —
// still accumulate heat.
func (m *Module) TierWant(kind, name string, rels []string, weight float64) {
	m.tier.want(beeKey{kind: kind, name: name}, rels, weight)
}

// TierPromote moves a candidate to compiled so its next compile
// proceeds. The caller must invalidate cached plans for it to take
// effect.
func (m *Module) TierPromote(kind, name string) bool {
	return m.tier.promote(beeKey{kind: kind, name: name})
}

// TierPin marks a compiled bee as persistently hot, exempting it from
// cold-decay demotion.
func (m *Module) TierPin(kind, name string) bool {
	return m.tier.pin(beeKey{kind: kind, name: name})
}

// TierDemote moves a promoted bee back to the stock path and evicts it
// from the bee cache. sticky demotions survive restarts via the
// checkpoint manifest; hold is the hysteresis in advisor cycles before
// the entry may become a candidate again. Returns true only on an
// actual promoted→demoted transition.
func (m *Module) TierDemote(kind, name string, sticky bool, hold int) bool {
	key := beeKey{kind: kind, name: name}
	if !m.tier.demote(key, sticky, hold) {
		return false
	}
	m.cache.drop(key)
	return true
}

// TierDecay ages all tier heat by factor and advances demotion holds.
func (m *Module) TierDecay(factor float64) { m.tier.decay(factor) }

// TierOf returns the tier state of a bee and whether it is tracked.
func (m *Module) TierOf(kind, name string) (TierState, bool) {
	return m.tier.get(beeKey{kind: kind, name: name})
}

// TierSnapshot returns every tracked tier entry, hottest first, each
// with its benefit attribution entry attached.
func (m *Module) TierSnapshot() []TierInfo {
	out := m.tier.snapshot()
	for i := range out {
		out[i].Usage = m.bees.usage(beeKey{kind: out[i].Kind, name: out[i].Name})
	}
	return out
}

// DemotedBees returns the sticky-demoted keys for the checkpoint
// manifest, sorted for deterministic output.
func (m *Module) DemotedBees() []TierInfo {
	all := m.tier.snapshot()
	out := all[:0]
	for _, ti := range all {
		if ti.State == TierDemoted && ti.Sticky {
			out = append(out, ti)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// RestoreDemotedBee re-installs a manifest denylist entry during
// recovery, before the warm-restart replay re-prepares manifest
// statements — so the replay's compiles find the refusal in place.
func (m *Module) RestoreDemotedBee(kind, name string, hold int) {
	m.tier.demote(beeKey{kind: kind, name: name}, true, hold)
}
