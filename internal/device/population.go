package device

import "fmt"

// Population is the cohort form of a device fleet: an archetype table
// (one shared Spec per tier) plus contiguous per-archetype index
// ranges, instead of one heap-allocated Device struct per unit. Device
// i's identity is fully determined by which archetype range contains
// i, so a million-device population holds no per-device state at all —
// the per-device *dynamic* state (data partition, participation
// memory, cumulative energy) lives in the simulator's packed
// struct-of-arrays, keyed by the same dense index space.
//
// Index layout: dense IDs, archetypes in declaration order (high first
// for the tiered constructor), so NewPopulation(h, m, l) holds devices
// 0..h−1 high-end, the next m mid-end and the last l low-end.
type Population struct {
	specs   []*Spec
	offsets []int // offsets[a] is the first index of archetype a; offsets[len] = Len
}

// NewPopulation builds a tiered population with the given per-tier
// device counts. It rejects degenerate shapes: negative counts and the
// empty population are errors.
func NewPopulation(high, mid, low int) (*Population, error) {
	counts := [NumCategories]int{high, mid, low}
	for c, n := range counts {
		if n < 0 {
			return nil, fmt.Errorf("device: negative %v tier count %d", Category(c), n)
		}
	}
	if high+mid+low == 0 {
		return nil, fmt.Errorf("device: empty population (all tier counts zero)")
	}
	specs := [NumCategories]*Spec{HighEndSpec(), MidEndSpec(), LowEndSpec()}
	p := &Population{offsets: []int{0}}
	for c := 0; c < NumCategories; c++ {
		if counts[c] == 0 {
			continue
		}
		p.specs = append(p.specs, specs[c])
		p.offsets = append(p.offsets, p.offsets[len(p.offsets)-1]+counts[c])
	}
	return p, nil
}

// Len is the number of devices; 0 for the zero Population.
func (p *Population) Len() int {
	if len(p.offsets) == 0 {
		return 0
	}
	return p.offsets[len(p.offsets)-1]
}

// ArchetypeCount returns the number of devices of archetype a.
func (p *Population) ArchetypeCount(a int) int { return p.offsets[a+1] - p.offsets[a] }

// ArchetypeOf returns the archetype index owning device i. Archetype
// tables are tiny (3 for tiered populations), so a linear scan beats a
// binary search.
func (p *Population) ArchetypeOf(i int) int {
	for a := 1; a < len(p.offsets)-1; a++ {
		if i < p.offsets[a] {
			return a - 1
		}
	}
	return len(p.specs) - 1
}

// Spec returns device i's hardware description.
func (p *Population) Spec(i int) *Spec { return p.specs[p.ArchetypeOf(i)] }

// CountByCategory tallies devices per tier.
func (p *Population) CountByCategory() [NumCategories]int {
	var counts [NumCategories]int
	for a, s := range p.specs {
		counts[s.Category] += p.ArchetypeCount(a)
	}
	return counts
}

// IdleWatts is the summed idle draw of the whole population, computed
// per archetype in O(archetypes).
func (p *Population) IdleWatts() float64 {
	total := 0.0
	for a, s := range p.specs {
		total += float64(p.ArchetypeCount(a)) * s.IdleWatts()
	}
	return total
}
