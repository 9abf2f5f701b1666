package rng

import (
	"math/bits"
	"math/rand/v2"
)

// splitMix64 is the SplitMix64 finalizer: a cheap, well-mixed bijection
// on 64-bit words. It is the standard seed-spreading hash (Steele et
// al., OOPSLA 2014) and the basis of Mix.
func splitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Mix hashes three words into one well-spread 64-bit seed. The
// population engine uses it to derive per-item streams — for example
// Mix(envSeed, round, deviceIndex) — so that each (round, device)
// pair's draws are a pure function of identity, independent of which
// shard or goroutine evaluates them.
func Mix(a, b, c uint64) uint64 {
	h := splitMix64(a)
	h = splitMix64(h ^ b)
	h = splitMix64(h ^ c)
	return h
}

// Reseedable is a Stream whose generator can be re-seeded in place,
// with no per-seed allocation. One Reseedable per shard lets a
// parallel loop give every item its own deterministic sequence —
// Seed(Mix(base, round, item)) — while the engine's steady state
// allocates nothing.
type Reseedable struct {
	pcg rand.PCG
	s   Stream
}

// NewReseedable returns an unseeded reseedable stream. Call Seed
// before drawing.
func NewReseedable() *Reseedable {
	r := &Reseedable{}
	r.s = Stream{r: rand.New(&r.pcg)}
	return r
}

// Seed resets the generator and returns the stream. Seed(x) yields the
// exact sequence New(x) would, so keyed streams and forked streams are
// interchangeable in tests.
func (r *Reseedable) Seed(seed uint64) *Stream {
	r.pcg.Seed(seed, seed^0x9e3779b97f4a7c15)
	return &r.s
}

// Sampler draws k distinct indices from [0, n), uniformly over all
// k-subsets, and emits them in ascending order — the population
// engine's replacement for Sample, whose Perm(n) allocation and O(n)
// shuffle are a wall at n = 10⁶ devices per round.
//
// It runs Floyd's algorithm (Bentley & Floyd, CACM 1987): for j from
// n-k to n-1 it draws t = IntN(j+1) and adds t to the set, or j if t
// is already a member. Every k-subset comes out with probability
// 1/C(n, k) from exactly k draws. Membership lives in an n-bit set, so
// resident state is one bit per element; one scan over its words
// emits the members in ascending order and clears the set for the next
// draw. A Sampler is not safe for concurrent use.
type Sampler struct {
	n   int
	set []uint64 // membership; all zero between draws
}

// NewSampler returns a sampler over [0, n).
func NewSampler(n int) *Sampler {
	return &Sampler{n: n, set: make([]uint64, (n+63)/64)}
}

// MemoryBytes returns the sampler's resident state: n bits, rounded
// up to whole 64-bit words.
func (sp *Sampler) MemoryBytes() int { return len(sp.set) * 8 }

// SampleInto fills out with len(out) distinct indices drawn uniformly
// from [0, n) in strictly ascending order, using exactly len(out)
// draws from s. It panics if len(out) > n.
func (sp *Sampler) SampleInto(s *Stream, out []int32) {
	k, n := len(out), sp.n
	if k > n {
		panic("rng: SampleInto with k > n")
	}
	for j := n - k; j < n; j++ {
		t := s.IntN(j + 1)
		if sp.set[t>>6]&(1<<(t&63)) != 0 {
			t = j
		}
		sp.set[t>>6] |= 1 << (t & 63)
	}
	// Emit in ascending order, clearing each word as it is read; the
	// scan stops at the word holding the k-th member.
	i := 0
	for w := 0; i < k; w++ {
		for b := sp.set[w]; b != 0; b &= b - 1 {
			out[i] = int32(w<<6 | bits.TrailingZeros64(b))
			i++
		}
		sp.set[w] = 0
	}
}
