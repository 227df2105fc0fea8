package obs

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Histogram is a fixed-bucket histogram: counts per upper bound plus an
// implicit +Inf bucket, a running sum and a total count, all updated
// with single atomic operations. Buckets are allocated once at
// registration; Observe never allocates. A nil *Histogram is a no-op.
//
// The bucket layout is Prometheus-style non-cumulative internally
// (counts[i] holds observations in (bounds[i-1], bounds[i]]) and is
// accumulated only at export time, so concurrent observers never touch
// more than one bucket counter.
type Histogram struct {
	bounds []float64 // ascending upper bounds, +Inf excluded
	counts []atomic.Uint64
	inf    atomic.Uint64
	sum    atomicFloat
	count  atomic.Uint64
}

func checkBuckets(bounds []float64) {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i, b := range bounds {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			panic("obs: histogram bounds must be finite (the +Inf bucket is implicit)")
		}
		if i > 0 && b <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not strictly ascending at index %d", i))
		}
	}
}

func newHistogram(bounds []float64) *Histogram {
	h := &Histogram{bounds: append([]float64(nil), bounds...)}
	h.counts = make([]atomic.Uint64, len(bounds))
	return h
}

// Observe records one value. Bound arrays are short (≤ ~20 entries), so
// a linear scan beats binary search on real hardware and stays
// branch-predictable for clustered observations.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	placed := false
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i].Add(1)
			placed = true
			break
		}
	}
	if !placed {
		h.inf.Add(1)
	}
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the number of observations (0 for nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 for nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// snapshot returns count, sum and the cumulative buckets (+Inf last).
// Reads are not atomic as a group — exports racing live observers can
// be off by in-flight observations, which is fine for telemetry.
func (h *Histogram) snapshot() (count uint64, sum float64, buckets []Bucket) {
	buckets = make([]Bucket, len(h.bounds)+1)
	var cum uint64
	for i := range h.bounds {
		cum += h.counts[i].Load()
		buckets[i] = Bucket{LE: h.bounds[i], Count: cum}
	}
	cum += h.inf.Load()
	buckets[len(h.bounds)] = Bucket{LE: math.Inf(1), Count: cum}
	// Export a count consistent with the +Inf bucket even mid-race:
	// the text format requires _count == the +Inf cumulative count.
	return cum, h.sum.Load(), buckets
}

// Quantile returns an estimate of the q-quantile (0 ≤ q ≤ 1) by linear
// interpolation inside the owning bucket — the standard
// histogram_quantile estimate. Returns NaN when empty; the last finite
// bound when the quantile lands in the +Inf bucket.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return math.NaN()
	}
	count, _, buckets := h.snapshot()
	if count == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// The q-quantile is the observation of (1-based) rank ⌈q·count⌉,
	// clamped to at least 1: a rank of 0 would "find" the first bucket
	// even when it is empty (0 ≥ 0) and return its bound, so q = 0 must
	// instead estimate the minimum, which lives in the first *occupied*
	// bucket.
	rank := q * float64(count)
	if rank < 1 {
		rank = 1
	}
	for i, b := range buckets {
		if float64(b.Count) >= rank {
			if math.IsInf(b.LE, 1) {
				return h.bounds[len(h.bounds)-1]
			}
			lower, prev := 0.0, uint64(0)
			if i > 0 {
				lower, prev = buckets[i-1].LE, buckets[i-1].Count
			}
			in := b.Count - prev
			if in == 0 {
				return b.LE
			}
			return lower + (b.LE-lower)*(rank-float64(prev))/float64(in)
		}
	}
	return h.bounds[len(h.bounds)-1]
}

// ExpBuckets returns n strictly ascending bounds starting at start and
// multiplying by factor — the usual latency layout.
func ExpBuckets(start, factor float64, n int) []float64 {
	if n < 1 || start <= 0 || factor <= 1 {
		panic("obs: ExpBuckets needs n ≥ 1, start > 0, factor > 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}
