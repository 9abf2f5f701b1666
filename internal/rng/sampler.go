package rng

import (
	"math/bits"
	"math/rand/v2"
	"unsafe"
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
//
// Every draw writes the PCG state, and parallel loops hold one
// Reseedable per goroutine, so two of them must never share a cache
// line. The padding makes the type exactly 128 B: Go's 128 B size
// class hands out 128-aligned objects, so each generator owns a whole
// pair of 64 B lines, and neither the line nor the adjacent-line
// prefetcher's pair is shared with another generator.
type Reseedable struct {
	pcg rand.PCG
	s   Stream
	_   [128 - unsafe.Sizeof(rand.PCG{}) - unsafe.Sizeof(Stream{})]byte
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
// resident state is one bit per element, plus a summary bit per set
// word that marks the words holding a member. The emit walks the
// summary, so it visits only the (at most k) non-empty words, in
// ascending order, and clears them for the next draw: its cost is
// O(k + n/4096) words, where a scan of the set would take a
// hard-to-predict branch on each of n/64. A Sampler is not safe for
// concurrent use.
type Sampler struct {
	n   int
	set []uint64 // membership; all zero between draws
	sum []uint64 // bit w set when set[w] is non-zero; all zero between draws
}

// NewSampler returns a sampler over [0, n).
func NewSampler(n int) *Sampler {
	words := (n + 63) / 64
	return &Sampler{n: n, set: make([]uint64, words), sum: make([]uint64, (words+63)/64)}
}

// MemoryBytes returns the sampler's resident state: n bits plus one
// summary bit per 64, each rounded up to whole 64-bit words.
func (sp *Sampler) MemoryBytes() int { return (len(sp.set) + len(sp.sum)) * 8 }

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
		sp.sum[t>>12] |= 1 << ((t >> 6) & 63)
	}
	// Emit in ascending order: the summary's set bits name the
	// non-empty words in order, and each is cleared as it is read.
	i := 0
	for sw, m := range sp.sum {
		for ; m != 0; m &= m - 1 {
			w := sw<<6 | bits.TrailingZeros64(m)
			for b := sp.set[w]; b != 0; b &= b - 1 {
				out[i] = int32(w<<6 | bits.TrailingZeros64(b))
				i++
			}
			sp.set[w] = 0
		}
		sp.sum[sw] = 0
	}
}
