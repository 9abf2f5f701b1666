package data

import (
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync"

	"autofl/internal/rng"
)

// Packed is the struct-of-arrays form of a data partition, sized for
// million-device populations: 20 bytes of resident state per device
// instead of a DeviceData struct with two heap slices. Class identity
// is kept as a 64-bit coverage mask (see ClassBuckets) — enough for
// the convergence model's class-coverage term — and per-device update
// quality is precomputed into one float32, so the round loop never
// touches a Proportions slice.
//
// Packed is generated with per-device keyed streams (rng.Mix of the
// partition seed and the device index), so the assignment for device i
// is a pure function of (seed, i): independent of generation order,
// worker count, and population size. It is therefore NOT draw-for-draw
// identical to the sequential Partition — the packed population is its
// own sampled realization of the same scenario distribution.
type Packed struct {
	// Classes is the label-class count of the workload.
	Classes int
	// Buckets is the coverage-mask width: min(Classes, 64).
	Buckets int
	// Mask holds per-device class-coverage bitmasks (bit b set when
	// the device holds a class mapping to bucket b).
	Mask []uint64
	// Quality holds per-device IID-quality scores in [0, 1].
	Quality []float32
	// ClassFrac holds per-device class fractions (the S_Data feature).
	ClassFrac []float32
	// Samples holds per-device local sample counts.
	Samples []int32
}

// classBucket maps a class id to its coverage-mask bit: the identity
// for ≤ 64 classes, a range partition above (ImageNet's 1000 classes
// fold into 64 contiguous buckets).
func classBucket(c, classes int) int {
	if classes <= 64 {
		return c
	}
	return c * 64 / classes
}

// PackedPartition assigns local datasets to n devices under the
// scenario, in cohort form. Each device's draws come from its own
// keyed stream; non-IID status is an independent Bernoulli draw per
// device (the sequential Partition picks an exact count — at
// population scale the binomial concentrates to the same fraction).
// Generation runs on GOMAXPROCS goroutines.
func PackedPartition(seed uint64, scenario Scenario, n, classes, meanSamples int) *Packed {
	return packedPartition(seed, scenario.NonIIDFraction, n, classes, meanSamples)
}

// ExactPackedPartition is PackedPartition with exactly round(f·n)
// non-IID devices, the count the sequential Partition assigns: the
// devices whose keyed membership draws are the smallest. Every device
// makes the same draws as under PackedPartition; only the threshold
// its membership draw is compared against moves from f to an order
// statistic of all n draws. At a few hundred devices the Bernoulli
// count's ±sqrt(n·f·(1−f)) spread is several percent of the fleet,
// enough to move runs whose cohort quality sits near the convergence
// plateau.
func ExactPackedPartition(seed uint64, scenario Scenario, n, classes, meanSamples int) *Packed {
	f := scenario.NonIIDFraction
	if f > 0 && f < 1 {
		f = exactThreshold(seed, f, n, meanSamples)
	}
	return packedPartition(seed, f, n, classes, meanSamples)
}

// exactThreshold returns the membership threshold under which exactly
// round(f·n) of the devices' keyed membership draws fall: the next
// larger draw, or 1 when every device is non-IID.
func exactThreshold(seed uint64, f float64, n, meanSamples int) float64 {
	m := int(float64(n)*f + 0.5)
	if m >= n {
		return 1
	}
	draws := make([]float64, n)
	rs := rng.NewReseedable()
	for i := range draws {
		s := rs.Seed(rng.Mix(seed, 0, uint64(i)))
		drawSamples(s, meanSamples)
		draws[i] = s.Float64()
	}
	slices.Sort(draws)
	return draws[m]
}

// packedPartition generates the partition with device i non-IID when
// its membership draw falls below threshold (see Stream.Bool).
func packedPartition(seed uint64, threshold float64, n, classes, meanSamples int) *Packed {
	buckets := classes
	if buckets > 64 {
		buckets = 64
	}
	p := &Packed{
		Classes:   classes,
		Buckets:   buckets,
		Mask:      make([]uint64, n),
		Quality:   make([]float32, n),
		ClassFrac: make([]float32, n),
		Samples:   make([]int32, n),
	}
	workers := min(runtime.GOMAXPROCS(0), n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := n*w/workers, n*(w+1)/workers
		wg.Add(1)
		go func() {
			defer wg.Done()
			rs := rng.NewReseedable()
			props := make([]float64, classes)
			for i := lo; i < hi; i++ {
				p.generate(rs.Seed(rng.Mix(seed, 0, uint64(i))), threshold, i, meanSamples, props)
			}
		}()
	}
	wg.Wait()
	return p
}

// drawSamples draws a device's local sample count: the first draw of
// its keyed stream.
func drawSamples(s *rng.Stream, meanSamples int) int32 {
	samples := int32(s.ClampedNormal(float64(meanSamples), 0.15*float64(meanSamples),
		0.7*float64(meanSamples), 1.3*float64(meanSamples)))
	return max(samples, 1)
}

// generate draws device i's assignment from its keyed stream. The
// draw order per device mirrors Partition's per-device order (samples,
// then the non-IID decision, then proportions).
func (p *Packed) generate(s *rng.Stream, threshold float64, i, meanSamples int, props []float64) {
	samples := drawSamples(s, meanSamples)
	p.Samples[i] = samples
	if !s.Bool(threshold) {
		p.Mask[i] = fullMask(p.Buckets)
		p.Quality[i] = 1
		p.ClassFrac[i] = 1
		return
	}
	// Dirichlet proportions, reduced on the fly to the three scalars
	// the round loop needs: present-class count, coverage mask, and
	// the inverse-Simpson quality score.
	dirichletInto(s, DirichletAlpha, props)
	var mask uint64
	present := 0
	sumSq := 0.0
	best := 0
	for c, pr := range props {
		sumSq += pr * pr
		if pr > props[best] {
			best = c
		}
		if pr*float64(samples) >= 1 {
			present++
			mask |= 1 << classBucket(c, p.Classes)
		}
	}
	if present == 0 {
		// Degenerate draw: keep the single largest class.
		present = 1
		mask = 1 << classBucket(best, p.Classes)
	}
	p.Mask[i] = mask
	p.ClassFrac[i] = float32(present) / float32(p.Classes)
	q := 1.0
	if sumSq > 0 {
		q = 1 / sumSq / float64(len(props)) // effective classes / total
	}
	if q > 1 {
		q = 1
	}
	// A zero quality would read as "unset" (DeviceData.Quality uses 0
	// as the legacy sentinel); the score is strictly positive anyway
	// for any non-degenerate draw, so clamp to a tiny floor.
	if q < 1e-9 {
		q = 1e-9
	}
	p.Quality[i] = float32(q)
}

// dirichletInto is Stream.Dirichlet without the allocation: a
// symmetric Dirichlet draw written into the caller's scratch.
func dirichletInto(s *rng.Stream, alpha float64, out []float64) {
	sum := 0.0
	for i := range out {
		g := s.Gamma(alpha)
		out[i] = g
		sum += g
	}
	if sum == 0 {
		for i := range out {
			out[i] = 0
		}
		out[s.IntN(len(out))] = 1
		return
	}
	for i := range out {
		out[i] /= sum
	}
}

func fullMask(buckets int) uint64 {
	if buckets >= 64 {
		return math.MaxUint64
	}
	return 1<<buckets - 1
}

// Len is the population size.
func (p *Packed) Len() int { return len(p.Samples) }

// Coverage returns the fraction of class buckets covered by the union
// mask m.
func (p *Packed) Coverage(m uint64) float64 {
	return float64(bits.OnesCount64(m)) / float64(p.Buckets)
}

// MemoryBytes is the resident size of the packed arrays.
func (p *Packed) MemoryBytes() int {
	return len(p.Mask)*8 + len(p.Quality)*4 + len(p.ClassFrac)*4 + len(p.Samples)*4
}
