// Package rng provides the deterministic random-number streams used by
// every stochastic component of the AutoFL simulator.
//
// All randomness in the repository flows through a *Stream seeded from a
// single experiment seed, so that any run — a full figure reproduction,
// a unit test, a property test — is reproducible bit-for-bit. Streams
// may be forked (see Fork) to give independent subsystems their own
// sequence without coupling their draw counts.
package rng

import (
	"math"
	"math/rand/v2"
)

// Stream is a deterministic source of random variates. It wraps a PCG
// generator from math/rand/v2 and layers on the distributions the
// simulator needs (Gaussian, Gamma, Dirichlet, categorical).
type Stream struct {
	r *rand.Rand
}

// New returns a Stream seeded with the given seed. Two Streams created
// with the same seed produce identical sequences.
func New(seed uint64) *Stream {
	return &Stream{r: rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))}
}

// Fork derives an independent child stream. The child's sequence is a
// pure function of the parent's state at the time of the call, so
// forking at the same point in two identical runs yields identical
// children.
func (s *Stream) Fork() *Stream {
	return &Stream{r: rand.New(rand.NewPCG(s.r.Uint64(), s.r.Uint64()))}
}

// Float64 returns a uniform variate in [0, 1).
func (s *Stream) Float64() float64 { return s.r.Float64() }

// IntN returns a uniform integer in [0, n). It panics if n <= 0.
func (s *Stream) IntN(n int) int { return s.r.IntN(n) }

// Uint64 returns a uniform 64-bit value.
func (s *Stream) Uint64() uint64 { return s.r.Uint64() }

// Bool returns true with probability p (clamped to [0, 1]).
func (s *Stream) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.r.Float64() < p
}

// Normal returns a Gaussian variate with the given mean and standard
// deviation. A non-positive sigma returns the mean.
func (s *Stream) Normal(mean, sigma float64) float64 {
	if sigma <= 0 {
		return mean
	}
	return mean + sigma*s.r.NormFloat64()
}

// ClampedNormal returns a Gaussian variate truncated (by clamping) to
// [lo, hi]. It is used for physical quantities such as bandwidth that
// are Gaussian in the field but cannot be negative.
func (s *Stream) ClampedNormal(mean, sigma, lo, hi float64) float64 {
	v := s.Normal(mean, sigma)
	// Branches: math.Max and math.Min are calls on amd64.
	if v < lo {
		v = lo
	}
	if v > hi {
		v = hi
	}
	return v
}

// Gamma returns a Gamma(shape, 1) variate using the Marsaglia–Tsang
// squeeze method, with the standard boost for shape < 1.
func (s *Stream) Gamma(shape float64) float64 {
	if shape <= 0 {
		return 0
	}
	if shape < 1 {
		// Gamma(a) = Gamma(a+1) * U^(1/a).
		u := s.r.Float64()
		for u == 0 {
			u = s.r.Float64()
		}
		return s.Gamma(shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1.0 / math.Sqrt(9*d)
	for {
		x := s.r.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := s.r.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// Dirichlet fills p with a draw from a symmetric Dirichlet
// distribution with len(p) components and concentration alpha. Smaller
// alpha concentrates the mass in fewer components — the paper uses
// alpha = 0.1 to model strongly non-IID class distributions.
func (s *Stream) Dirichlet(alpha float64, p []float64) {
	sum := 0.0
	for i := range p {
		g := s.Gamma(alpha)
		p[i] = g
		sum += g
	}
	if sum == 0 && len(p) > 0 {
		// Degenerate draw (every component is 0): put all mass on one
		// random component.
		p[s.IntN(len(p))] = 1
		return
	}
	for i := range p {
		p[i] /= sum
	}
}

// Categorical returns an index drawn with probability proportional to
// weights[i]. Non-positive weights are treated as zero. If all weights
// are zero the draw is uniform.
func (s *Stream) Categorical(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return s.IntN(len(weights))
	}
	x := s.r.Float64() * total
	acc := 0.0
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		acc += w
		if x < acc {
			return i
		}
	}
	return len(weights) - 1
}

// Perm returns a random permutation of [0, n).
func (s *Stream) Perm(n int) []int { return s.r.Perm(n) }

// PermInto fills p with a random permutation of [0, len(p)) without
// allocating. It consumes exactly the same variates as Perm(len(p)),
// so the two are interchangeable in reproducibility-sensitive code.
func (s *Stream) PermInto(p []int) {
	for i := range p {
		p[i] = i
	}
	// Mirror of math/rand/v2's Shuffle (which Perm delegates to): one
	// IntN(i+1) draw per position, descending.
	for i := len(p) - 1; i > 0; i-- {
		j := s.r.IntN(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Shuffle randomizes the order of n elements using the provided swap
// function.
func (s *Stream) Shuffle(n int, swap func(i, j int)) { s.r.Shuffle(n, swap) }

// Sample returns k distinct indices drawn uniformly from [0, n). If
// k >= n all indices are returned (in random order).
func (s *Stream) Sample(n, k int) []int {
	perm := s.r.Perm(n)
	if k > n {
		k = n
	}
	return perm[:k]
}
