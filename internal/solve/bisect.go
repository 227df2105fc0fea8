package solve

import (
	"errors"
	"math"
)

// ErrNoBracket is returned when the supplied interval does not bracket a
// root (f(lo) and f(hi) have the same sign).
var ErrNoBracket = errors.New("solve: interval does not bracket a root")

// ErrNoConverge is returned when an iterative method exhausts its
// iteration budget before reaching the requested tolerance.
var ErrNoConverge = errors.New("solve: iteration limit reached before convergence")

// defaultMaxIter bounds bisection steps. 200 halvings shrink any
// representable interval below one ulp, so hitting the bound indicates a
// pathological (NaN-producing) objective rather than slow convergence.
const defaultMaxIter = 200

// Bisect finds x in [lo, hi] with f(x) = 0 to within relative tolerance
// rtol, assuming f is continuous and f(lo), f(hi) have opposite signs.
// It is robust against non-finite f values inside the interval (they are
// treated as sign carriers via copysign on the midpoint side that remains
// bracketed). Bisect performs no heap allocations of its own, so hot
// paths may call it with a long-lived objective without per-call cost.
func Bisect(f func(float64) float64, lo, hi, rtol float64) (float64, error) {
	return bisect(f, 0, lo, hi, rtol)
}

// bisect solves f(x) = target on [lo, hi]. Evaluating f(x) - target
// inline (rather than wrapping f in a shifted closure) keeps the shared
// solver allocation-free for both Bisect and BisectDecreasing while
// producing bit-identical iterates.
func bisect(f func(float64) float64, target, lo, hi, rtol float64) (float64, error) {
	if lo > hi {
		lo, hi = hi, lo
	}
	flo, fhi := f(lo)-target, f(hi)-target
	if flo == 0 {
		return lo, nil
	}
	if fhi == 0 {
		return hi, nil
	}
	if math.Signbit(flo) == math.Signbit(fhi) {
		return 0, ErrNoBracket
	}
	for i := 0; i < defaultMaxIter; i++ {
		mid := midpoint(lo, hi)
		if mid <= lo || mid >= hi {
			// Interval collapsed to adjacent floats.
			return mid, nil
		}
		fmid := f(mid) - target
		if fmid == 0 {
			return mid, nil
		}
		if math.Signbit(fmid) == math.Signbit(flo) {
			lo, flo = mid, fmid
		} else {
			hi = mid
		}
		if hi-lo <= rtol*math.Max(math.Abs(lo), math.Abs(hi)) {
			return midpoint(lo, hi), nil
		}
	}
	return midpoint(lo, hi), ErrNoConverge
}

// midpoint halves [lo, hi] without overflowing when hi-lo exceeds the
// float64 range (e.g. lo and hi near opposite extremes).
func midpoint(lo, hi float64) float64 {
	if half := (hi - lo) / 2; !math.IsInf(half, 0) {
		return lo + half
	}
	return lo/2 + hi/2
}

// BisectDecreasing solves f(x) = target for a continuous strictly
// decreasing f on [lo, hi]. It is a convenience wrapper used by the
// makespan equalizer, where f(K) = Σ (1-s_i)/(K/c_i - s_i) is decreasing
// in K. Unlike a closure-shifted Bisect it allocates nothing, so the
// equalizer can sit on the scheduler's zero-allocation hot path.
func BisectDecreasing(f func(float64) float64, target, lo, hi, rtol float64) (float64, error) {
	return bisect(f, target, lo, hi, rtol)
}

// Kahan accumulates float64 values with compensated (Kahan-Babuška)
// summation. The zero value is an empty sum. It keeps experiment
// aggregates stable when summing tens of thousands of makespans spanning
// several orders of magnitude.
type Kahan struct {
	sum, c float64
}

// Add accumulates v.
func (k *Kahan) Add(v float64) {
	t := k.sum + v
	if math.Abs(k.sum) >= math.Abs(v) {
		k.c += (k.sum - t) + v
	} else {
		k.c += (v - t) + k.sum
	}
	k.sum = t
}

// Sum returns the compensated total.
func (k *Kahan) Sum() float64 { return k.sum + k.c }

// Sum computes the compensated sum of xs.
func Sum(xs []float64) float64 {
	var k Kahan
	for _, x := range xs {
		k.Add(x)
	}
	return k.Sum()
}

// RelDiff returns the relative difference |a-b| / max(|a|, |b|), the
// tolerance metric of the cross-check harnesses. Exactly equal values
// (including two zeros) yield 0; any non-finite operand yields +Inf so
// an overflowed quantity always FAILS a tolerance gate instead of
// slipping past it as NaN (which compares false against every bound).
func RelDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	if d == 0 {
		return 0
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale == 0 || math.IsInf(scale, 0) || math.IsNaN(scale) {
		return math.Inf(1)
	}
	return d / scale
}
