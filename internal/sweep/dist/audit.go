package dist

import (
	"fmt"
	"maps"
	"slices"
	"strings"

	"autofl/internal/sweep"
	"autofl/internal/sweep/cache"
)

// Audit is what one sweep did beyond its results: how the cache served
// it, which worker ran how many cells, and the faults it survived. It
// is the one record behind autofl-sweep's stats line (local and
// -server) and the daemon's job status, whose JSON carries these
// fields verbatim.
type Audit struct {
	// CacheHits counts cells served from the cache, CachePrefixHits the
	// subset answered by replaying a longer run's trace prefix, and
	// CacheMisses the cells executed.
	CacheHits       int `json:"cache_hits"`
	CachePrefixHits int `json:"cache_prefix_hits,omitempty"`
	CacheMisses     int `json:"cache_misses"`

	// Requeues counts cells returned to the queue after worker faults;
	// Quarantined counts cells abandoned past the retry budget; and
	// FailedCells counts results that finished with a per-cell error
	// (quarantined cells included) — the sweep completed with explicit
	// holes, not silently thin summaries.
	Requeues    int `json:"requeues,omitempty"`
	Quarantined int `json:"quarantined,omitempty"`
	FailedCells int `json:"failed_cells,omitempty"`

	// Workers counts the cells each worker completed, by label. Cells
	// served from the cache are not counted here.
	Workers map[string]int `json:"workers,omitempty"`
}

// AuditOf assembles the audit of one sweep from the parts it ran with:
// the cache's counters, the executor's per-worker cells and faults
// from its most recent Execute call, and the store's failed cells. Any
// argument may be nil, and contributes nothing.
func AuditOf(c *cache.Cache, e *PoolExecutor, store *sweep.ResultStore) Audit {
	var a Audit
	if c != nil {
		s := c.Stats()
		a.CacheHits, a.CachePrefixHits, a.CacheMisses = s.Hits, s.PrefixHits, s.Misses
	}
	if e != nil {
		if d := e.last.Load(); d != nil {
			d.audit(&a)
		}
	}
	if store != nil {
		a.FailedCells = store.Failed()
	}
	return a
}

// String renders the audit as the tail of a sweep's stats line,
// leaving out the cache segment when no cell went through a cache, the
// workers segment when no worker completed a cell, and the faults
// segment of a clean sweep:
//
//	| cache: 4 hits (0 prefix), 2 misses | workers: w1=1 w2=1 | faults: 1 requeues, 0 quarantined, 0 failed cells
//
// The receiver is a pointer so that svc.JobStatus, which embeds Audit,
// does not print as its audit alone under %v.
func (a *Audit) String() string {
	var b strings.Builder
	if a.CacheHits+a.CachePrefixHits+a.CacheMisses > 0 {
		fmt.Fprintf(&b, " | cache: %d hits (%d prefix), %d misses", a.CacheHits, a.CachePrefixHits, a.CacheMisses)
	}
	if len(a.Workers) > 0 {
		b.WriteString(" | workers:")
		for _, l := range slices.Sorted(maps.Keys(a.Workers)) {
			fmt.Fprintf(&b, " %s=%d", l, a.Workers[l])
		}
	}
	if a.Requeues+a.Quarantined+a.FailedCells > 0 {
		fmt.Fprintf(&b, " | faults: %d requeues, %d quarantined, %d failed cells", a.Requeues, a.Quarantined, a.FailedCells)
	}
	return b.String()
}
