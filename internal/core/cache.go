package core

import (
	"fmt"
	"slices"
	"strings"
	"sync"
)

// This file implements the remaining Query Evaluation Group components of
// the bee architecture (paper Figure 3): the Bee Cache (the repository of
// bees in executable form, written to disk along with the relations), the
// Bee Cache Manager (the in-memory view), the Bee Placement Optimizer
// (which assigns bees to instruction-cache-friendly locations), and the
// Bee Collector (garbage collection of dead bees).

// beeKey identifies one bee in the cache, the quarantine, the tier
// table, and the bee table.
type beeKey struct {
	kind string // one of the Kind* constants (admit.go)
	name string
}

// CacheEntry describes one cached bee for inspection.
type CacheEntry struct {
	Kind   string
	Name   string
	Bytes  int // size of the stored executable form
	OnDisk bool
	// Quarantined is set by Module.CacheEntries for bees currently out of
	// service after a runtime panic.
	Quarantined bool
	// Tier is set by Module.CacheEntries when the adaptive advisor tracks
	// this bee: "pinned", "compiled", "candidate", or "demoted". Demoted
	// bees are evicted from the cache itself but still listed so shell
	// and admin views can show what the advisor switched off.
	Tier string
}

// BeeCache stores every bee's executable form (here: its generated
// template text standing in for the ELF function bodies). Bees are formed
// in memory and flushed to the on-disk cache; on "server start" they
// would be loaded back (Load simulates this).
type BeeCache struct {
	mu        sync.Mutex
	mem       map[beeKey]string
	disk      map[beeKey]string
	writes    int64
	hits      int64
	misses    int64
	evictions int64
}

// CacheStats is a point-in-time summary of bee-cache activity and
// footprint, surfaced through the metrics registry and the \cache shell
// command.
type CacheStats struct {
	MemEntries  int   `json:"mem_entries"`
	DiskEntries int   `json:"disk_entries"`
	MemBytes    int64 `json:"mem_bytes"`
	DiskBytes   int64 `json:"disk_bytes"`
	Writes      int64 `json:"writes"`
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	Evictions   int64 `json:"evictions"`
}

// Stats returns cumulative cache counters and current entry/byte totals.
func (c *BeeCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := CacheStats{
		MemEntries:  len(c.mem),
		DiskEntries: len(c.disk),
		Writes:      c.writes,
		Hits:        c.hits,
		Misses:      c.misses,
		Evictions:   c.evictions,
	}
	for _, v := range c.mem {
		s.MemBytes += int64(len(v))
	}
	for _, v := range c.disk {
		s.DiskBytes += int64(len(v))
	}
	return s
}

func newBeeCache() *BeeCache {
	return &BeeCache{mem: make(map[beeKey]string), disk: make(map[beeKey]string)}
}

func (c *BeeCache) put(k beeKey, code string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.mem[k] = code
}

func (c *BeeCache) drop(k beeKey) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.mem[k]; ok {
		c.evictions++
	}
	delete(c.mem, k)
	delete(c.disk, k)
}

// Flush writes all in-memory bees to the on-disk cache ("when the bee
// templates are compiled into object code, the bees are formed and
// flushed to the on-disk bee cache").
func (c *BeeCache) Flush() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for k, v := range c.mem {
		if c.disk[k] != v {
			c.disk[k] = v
			c.writes++
			n++
		}
	}
	return n
}

// Load repopulates the in-memory cache from disk (server start).
func (c *BeeCache) Load() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, v := range c.disk {
		c.mem[k] = v
	}
	return len(c.disk)
}

// Get returns the stored executable form of a bee, for inspection.
func (c *BeeCache) Get(kind, name string) (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.mem[beeKey{kind, name}]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return v, ok
}

// Entries lists cached bees sorted by kind then name.
func (c *BeeCache) Entries() []CacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]CacheEntry, 0, len(c.mem))
	for k, v := range c.mem {
		_, onDisk := c.disk[k]
		out = append(out, CacheEntry{Kind: k.kind, Name: k.name, Bytes: len(v), OnDisk: onDisk})
	}
	slices.SortFunc(out, func(a, b CacheEntry) int {
		if c := strings.Compare(a.Kind, b.Kind); c != 0 {
			return c
		}
		return strings.Compare(a.Name, b.Name)
	})
	return out
}

// Len returns the number of in-memory bees.
func (c *BeeCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.mem)
}

// Placement is the Bee Placement Optimizer: it assigns each bee a range
// of simulated L1 instruction-cache lines disjoint from the lines modeled
// as hot DBMS code, and reports the conflict statistics. The paper found
// the runtime effect trivial (I1 miss rate ≈0.3%) but keeps the component
// to bound cache impact as more bees are added; we reproduce it at
// simulation level (DESIGN.md "Known deviations").
type Placement struct {
	mu        sync.Mutex
	nextLine  int
	assigned  int
	conflicts int
	// parallelPlans counts plans the planner marked parallel-safe: every
	// bee in such a plan is instantiated per worker, so the optimizer
	// knows those placements are duplicated across cores rather than
	// shared (per-core I1 caches make duplicate placement free).
	parallelPlans int64
}

// Simulated I1 geometry: 32 KiB, 64-byte lines.
const (
	icacheLines = 32 * 1024 / 64
	// hotLines models the fraction of I1 occupied by hot DBMS code that
	// bees must avoid.
	hotLines = 384
)

func newPlacement() *Placement { return &Placement{nextLine: hotLines} }

// assign reserves lines for a bee of the given code size and counts a
// conflict whenever the allocator wraps into the hot region.
func (p *Placement) assign(code string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	lines := (len(code) + 63) / 64
	if lines == 0 {
		lines = 1
	}
	start := p.nextLine
	if start+lines > icacheLines {
		start = hotLines
		p.conflicts++
	}
	p.nextLine = start + lines
	p.assigned++
	return start
}

// MarkParallelSafe records that the planner cleared one plan's bees for
// concurrent per-worker invocation.
func (p *Placement) MarkParallelSafe() {
	p.mu.Lock()
	p.parallelPlans++
	p.mu.Unlock()
}

// ParallelSafePlans returns how many plans were marked parallel-safe.
func (p *Placement) ParallelSafePlans() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.parallelPlans
}

// Report summarizes placement activity.
func (p *Placement) Report() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return fmt.Sprintf("placement: %d bees, next line %d/%d, %d wrap conflicts, %d parallel-safe plans",
		p.assigned, p.nextLine, icacheLines, p.conflicts, p.parallelPlans)
}

// Assigned returns how many bees have been placed.
func (p *Placement) Assigned() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.assigned
}

// Stats returns the placement decision count and wrap-conflict count.
func (p *Placement) Stats() (assigned, conflicts int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.assigned, p.conflicts
}
