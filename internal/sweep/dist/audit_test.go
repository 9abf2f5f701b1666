package dist

import "testing"

// TestAuditString pins the stats-line tail both autofl-sweep modes
// print: each segment's wording, each omission, and workers sorted by
// label.
func TestAuditString(t *testing.T) {
	for _, tc := range []struct {
		name string
		a    Audit
		want string
	}{
		{"empty", Audit{}, ""},
		{"cache", Audit{CacheHits: 4, CachePrefixHits: 1, CacheMisses: 2},
			" | cache: 4 hits (1 prefix), 2 misses"},
		{"cold cache", Audit{CacheMisses: 4}, " | cache: 0 hits (0 prefix), 4 misses"},
		{"workers sorted", Audit{Workers: map[string]int{"w2": 1, "10.0.0.1:7070": 3, "w1": 2}},
			" | workers: 10.0.0.1:7070=3 w1=2 w2=1"},
		{"no workers", Audit{CacheHits: 1, Workers: map[string]int{}}, " | cache: 1 hits (0 prefix), 0 misses"},
		{"requeues", Audit{Requeues: 2}, " | faults: 2 requeues, 0 quarantined, 0 failed cells"},
		{"quarantined", Audit{Quarantined: 1, FailedCells: 1}, " | faults: 0 requeues, 1 quarantined, 1 failed cells"},
		{"failed cells", Audit{FailedCells: 3}, " | faults: 0 requeues, 0 quarantined, 3 failed cells"},
		{"all", Audit{CacheHits: 4, CacheMisses: 2, Requeues: 1, Workers: map[string]int{"w2": 1, "w1": 1}},
			" | cache: 4 hits (0 prefix), 2 misses | workers: w1=1 w2=1 | faults: 1 requeues, 0 quarantined, 0 failed cells"},
	} {
		if got := tc.a.String(); got != tc.want {
			t.Errorf("%s: String() = %q, want %q", tc.name, got, tc.want)
		}
	}
}
