// Package solve provides the small numeric substrate used throughout the
// repository: deterministic random number generation, root finding,
// one-dimensional minimization and compensated summation.
//
// The original study was carried out with a Python/NumPy simulator; this
// package replaces the handful of numeric primitives that simulator relied
// on, implemented on the Go standard library only so that every experiment
// is bit-reproducible across platforms.
package solve

import (
	"math"
	"math/bits"
)

// golden is the 64-bit golden-ratio constant, ⌊2^64/φ⌋: the
// increment of the SplitMix64 stream and the stride Substream separates
// derived seeds by.
const golden = 0x9e3779b97f4a7c15

// RNG is a deterministic pseudo-random number generator based on
// SplitMix64 (Steele, Lea, Flood 2014). It is small, fast, splittable and
// passes BigCrush, which is more than sufficient for driving workload
// generation in simulations. The zero value is a valid generator seeded
// with 0.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. Two generators with the
// same seed produce identical streams.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Reseed restarts r in place as the stream NewRNG(seed) returns, so a
// caller that draws a fresh stream per call can keep one generator
// instead of allocating one each time.
func (r *RNG) Reseed(seed uint64) { r.state = seed }

// Split returns a new generator whose stream is statistically independent
// from r's. It advances r by one step. Splitting is used to give each
// experiment replicate its own stream without coupling replicate count to
// stream contents.
func (r *RNG) Split() *RNG {
	return &RNG{state: r.Uint64() * golden}
}

// Substream derives the seed of substream k of seed: seed ^ k·golden.
// Every layer that splits one seed into many streams — the portfolio's
// heuristics, an online policy's invocations, a fleet's nodes, the
// scenario generator's families — derives them here, so all of them
// share one stride.
func Substream(seed, k uint64) uint64 {
	return seed ^ k*golden
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	r.state += golden
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	// 53 high-quality bits into the mantissa.
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("solve: Intn with non-positive bound")
	}
	// Lemire's multiply-shift rejection method, unbiased.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := bits.Mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// UniformRange returns a uniform float64 in [lo, hi).
func (r *RNG) UniformRange(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// LogUniform returns a value whose logarithm is uniform over
// [log lo, log hi). This matches how the paper's generators draw work
// values spanning four orders of magnitude (1e8 to 1e12): sampling the
// exponent uniformly rather than the value itself.
func (r *RNG) LogUniform(lo, hi float64) float64 {
	if lo <= 0 || hi <= lo {
		panic("solve: LogUniform requires 0 < lo < hi")
	}
	return math.Exp(r.UniformRange(math.Log(lo), math.Log(hi)))
}

// NormFloat64 returns a standard normal variate using the polar
// (Marsaglia) method.
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Perm returns a uniformly random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle permutes the first n elements using swap, Fisher-Yates style.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Zipf samples from a Zipf distribution over {0, …, n-1} with exponent
// s > 0 using inverse-CDF on a precomputed table-free approximation
// (rejection-inversion of Hörmann and Derflinger). For the trace
// generator's purposes n is modest so we use exact inverse CDF with
// cached normalization when repeated sampling is needed; this method is
// the simple one-shot variant.
func (r *RNG) Zipf(n int, s float64) int {
	if n <= 0 {
		panic("solve: Zipf with non-positive n")
	}
	// One-pass inverse CDF; O(n) worst case but typically terminates
	// early because mass concentrates on small ranks.
	var norm float64
	for k := 1; k <= n; k++ {
		norm += math.Pow(float64(k), -s)
	}
	u := r.Float64() * norm
	var cum float64
	for k := 1; k <= n; k++ {
		cum += math.Pow(float64(k), -s)
		if u <= cum {
			return k - 1
		}
	}
	return n - 1
}
