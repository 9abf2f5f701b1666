package data

import (
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync"

	"autofl/internal/rng"
)

// Packed is the device data partition in struct-of-arrays form, sized
// for million-device populations: 20 bytes of resident state per
// device. Class identity is kept as a 64-bit coverage mask (see
// classBucket), enough for the convergence model's class-coverage
// term, and per-device update quality is precomputed into one float32,
// so the round loop never touches per-class proportions. Proportions
// re-derives a device's class proportions on demand.
//
// Packed is generated with per-device keyed streams (rng.Mix of the
// partition seed and the device index), so the assignment for device i
// is a pure function of (seed, i): independent of generation order,
// worker count, and population size.
type Packed struct {
	// Classes is the label-class count of the workload.
	Classes int
	// Buckets is the coverage-mask width: min(Classes, 64).
	Buckets int
	// Mask holds per-device class-coverage bitmasks (bit b set when
	// the device holds a class mapping to bucket b).
	Mask []uint64
	// Quality holds per-device IID-quality scores in (0, 1]: 1 for an
	// IID device, else the effective class count (inverse Simpson
	// index) of the device's proportions over the class count.
	Quality []float32
	// ClassFrac holds per-device class fractions (the S_Data feature).
	ClassFrac []float32
	// Samples holds per-device local sample counts.
	Samples []int32

	// seed, threshold and meanSamples are the draw parameters, kept so
	// Proportions can replay a device's keyed stream.
	seed        uint64
	threshold   float64
	meanSamples int
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
// device (ExactPackedPartition fixes the count; at population scale
// the binomial concentrates to the same fraction). Generation runs on
// GOMAXPROCS goroutines.
func PackedPartition(seed uint64, scenario Scenario, n, classes, meanSamples int) *Packed {
	return packedPartition(seed, scenario.NonIIDFraction, n, classes, meanSamples)
}

// ExactPackedPartition is PackedPartition with exactly round(f·n)
// non-IID devices: the devices whose keyed membership draws are the
// smallest. Every device
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
		s := rs.Seed(deviceKey(seed, i))
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

		seed:        seed,
		threshold:   threshold,
		meanSamples: meanSamples,
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
				p.generate(rs.Seed(deviceKey(seed, i)), i, props)
			}
		}()
	}
	wg.Wait()
	return p
}

// deviceKey is the seed of device i's keyed stream.
func deviceKey(seed uint64, i int) uint64 { return rng.Mix(seed, 0, uint64(i)) }

// drawSamples draws a device's local sample count: the first draw of
// its keyed stream.
func drawSamples(s *rng.Stream, meanSamples int) int32 {
	samples := int32(s.ClampedNormal(float64(meanSamples), 0.15*float64(meanSamples),
		0.7*float64(meanSamples), 1.3*float64(meanSamples)))
	return max(samples, 1)
}

// draw makes a device's draws from its keyed stream s: the sample
// count, the non-IID membership, and for a non-IID device its
// proportions into props. generate and Proportions both draw through
// it, so the stored arrays and the replayed proportions cannot drift.
func (p *Packed) draw(s *rng.Stream, props []float64) (samples int32, nonIID bool) {
	samples = drawSamples(s, p.meanSamples)
	if !s.Bool(p.threshold) {
		return samples, false
	}
	s.Dirichlet(DirichletAlpha, props)
	return samples, true
}

// generate draws device i and reduces its proportions to the scalars
// the round loop needs: class fraction, coverage mask and quality.
func (p *Packed) generate(s *rng.Stream, i int, props []float64) {
	samples, nonIID := p.draw(s, props)
	p.Samples[i] = samples
	if !nonIID {
		p.Mask[i] = fullMask(p.Buckets)
		p.Quality[i] = 1
		p.ClassFrac[i] = 1
		return
	}
	var mask uint64
	present := 0
	sumSq := 0.0
	best := 0
	for c, pr := range props {
		sumSq += pr * pr
		if pr > props[best] {
			best = c
		}
		// A class is present if the device holds a sample of it.
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
	// The proportions sum to 1, so sumSq lies in [1/classes, 1] and
	// the score in [1/classes, 1]; the clamp only absorbs rounding.
	p.Quality[i] = float32(min(1/sumSq/float64(len(props)), 1))
}

// Proportions replays device i's keyed stream and returns its Dirichlet
// class proportions, indexed by class id, or nil for an IID device.
func (p *Packed) Proportions(i int) []float64 {
	props := make([]float64, p.Classes)
	if _, nonIID := p.draw(rng.New(deviceKey(p.seed, i)), props); !nonIID {
		return nil
	}
	return props
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
