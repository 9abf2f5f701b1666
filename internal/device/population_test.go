package device

import "testing"

func TestNewPopulationRejectsDegenerateShapes(t *testing.T) {
	if _, err := NewPopulation(-1, 5, 5); err == nil {
		t.Error("negative tier count accepted")
	}
	if _, err := NewPopulation(0, 0, 0); err == nil {
		t.Error("all-zero population accepted")
	}
	if p, err := NewPopulation(0, 0, 7); err != nil || p.Len() != 7 {
		t.Errorf("single-tier population: err=%v len=%d", err, p.Len())
	}
}

func TestPopulationIndexing(t *testing.T) {
	p, err := NewPopulation(3, 7, 10)
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 20 {
		t.Fatalf("Len = %d, want 20", p.Len())
	}
	if (&Population{}).Len() != 0 {
		t.Error("zero Population has devices")
	}
	wantCounts := [NumCategories]int{3, 7, 10}
	if got := p.CountByCategory(); got != wantCounts {
		t.Errorf("CountByCategory = %v, want %v", got, wantCounts)
	}
	// Boundaries: archetype membership must flip exactly at the offsets.
	cases := []struct{ i, archetype int }{
		{0, 0}, {2, 0}, {3, 1}, {9, 1}, {10, 2}, {19, 2},
	}
	for _, c := range cases {
		if got := p.ArchetypeOf(c.i); got != c.archetype {
			t.Errorf("ArchetypeOf(%d) = %d, want %d", c.i, got, c.archetype)
		}
	}
	for i := 0; i < p.Len(); i++ {
		if p.Spec(i) != p.specs[p.ArchetypeOf(i)] {
			t.Fatalf("Spec(%d) disagrees with ArchetypeOf", i)
		}
	}
}

func TestPopulationSkipsEmptyTiers(t *testing.T) {
	p, err := NewPopulation(2, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.specs) != 2 {
		t.Fatalf("archetype table has %d entries, want 2 (empty tier skipped)", len(p.specs))
	}
	if got := p.CountByCategory(); got != [NumCategories]int{2, 0, 3} {
		t.Errorf("CountByCategory = %v", got)
	}
}

// TestPopulationIdleWattsMatchesFleetSum pins the O(archetypes) idle
// aggregate against the per-device sum.
func TestPopulationIdleWattsMatchesFleetSum(t *testing.T) {
	p, err := NewPopulation(6, 14, 20)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for i := 0; i < p.Len(); i++ {
		sum += p.Spec(i).IdleWatts()
	}
	if got := p.IdleWatts(); got != sum {
		t.Errorf("IdleWatts = %v, fleet sum = %v", got, sum)
	}
}
