// Package model implements the platform and application model of Aupy et
// al., "Co-scheduling algorithms for cache-partitioned systems"
// (RR-8965): Amdahl speedup profiles, the Power Law of Cache Misses
// (Eq. 1) and the execution-time model Exe_i(p_i, x_i) (Eq. 2), together
// with the derived per-application quantities (d_i, the dominance weight
// (w_i f_i d_i)^{1/(α+1)} and the dominance ratio of Definition 4) that
// the partitioning theory of Section 4 is built on.
//
// d_i is fixed for an (application, platform) pair, and so are the two
// constants derived from it. Each equation therefore has a form taking
// d_i (CostPerOpD, ExeD, MinUsefulFractionD, DominanceWeightD) that the
// plain methods wrap. Hot paths compute a Constants table once per solve
// and read d_i from it instead of calling D on every evaluation.
package model

import (
	"errors"
	"fmt"
	"math"
)

// Platform describes the multi-core chip of Section 3: p homogeneous
// processors sharing a small fast storage ("cache", size Cs, latency Ls)
// backed by an infinite slow storage ("memory", latency Ll). Alpha is the
// sensitivity exponent of the Power Law of Cache Misses; the literature
// reports values in [0.3, 0.7] with 0.5 typical.
type Platform struct {
	Processors float64 // p: total processor count (rational: cores are shareable via multi-threading)
	CacheSize  float64 // Cs: shared LLC capacity in bytes
	LatencyS   float64 // ls: cost of a cache access (hit)
	LatencyL   float64 // ll: additional cost of a cache miss
	Alpha      float64 // α: power-law sensitivity exponent
}

// Validate reports the first structural problem with the platform
// description, or nil if it is usable.
func (pl Platform) Validate() error {
	switch {
	case !isFinitePos(pl.Processors):
		return invalid("platform.processors", pl.Processors, "needs finite > 0 processors")
	case !isFinitePos(pl.CacheSize):
		return invalid("platform.cacheSize", pl.CacheSize, "needs finite > 0 cache size")
	case pl.LatencyS < 0 || math.IsNaN(pl.LatencyS) || math.IsInf(pl.LatencyS, 0):
		return invalid("platform.ls", pl.LatencyS, "cache latency is not finite and >= 0")
	case pl.LatencyL < 0 || math.IsNaN(pl.LatencyL) || math.IsInf(pl.LatencyL, 0):
		return invalid("platform.ll", pl.LatencyL, "memory latency is not finite and >= 0")
	case !isFinitePos(pl.Alpha):
		return invalid("platform.alpha", pl.Alpha, "power-law exponent must be finite > 0")
	}
	return nil
}

// isFinitePos reports whether v is a finite positive number — the guard
// that keeps +Inf (which passes a bare "> 0" test) out of quantities
// that flow into products and quotients, where it silently degenerates
// to NaN deep inside the heuristics.
func isFinitePos(v float64) bool {
	return v > 0 && !math.IsInf(v, 1)
}

// Reference platform used throughout the paper's evaluation (Section
// 6.1): one Sunway TaihuLight node, 256 processors, 32 GB shared memory
// treated as the LLC, ll = 1, ls = 0.17 (LLC ≈ 5.88× faster than DRAM),
// α = 0.5.
func TaihuLight() Platform {
	return Platform{
		Processors: 256,
		CacheSize:  32000e6,
		LatencyS:   0.17,
		LatencyL:   1,
		Alpha:      0.5,
	}
}

// Application is one co-scheduled job (Section 3). Its speedup obeys
// Amdahl's law with sequential fraction SeqFraction; every computing
// operation issues AccessFreq data accesses; the miss rate measured with
// a cache of RefCacheSize bytes is RefMissRate. Footprint is the memory
// footprint a_i in bytes; a non-positive Footprint means "larger than any
// cache of interest" (a_i = +∞), which is the regime the paper's
// theoretical sections assume.
type Application struct {
	Name         string  // identifier for reports
	Work         float64 // w_i: number of computing operations
	SeqFraction  float64 // s_i: sequential fraction of the work (0 = perfectly parallel)
	AccessFreq   float64 // f_i: data accesses per computing operation
	Footprint    float64 // a_i: memory footprint in bytes; <= 0 means unbounded
	RefMissRate  float64 // m_i(C0): miss rate at the reference cache size
	RefCacheSize float64 // C0: cache size at which RefMissRate was measured, bytes
}

// Validate reports the first structural problem with the application, or
// nil if it is usable.
func (a Application) Validate() error {
	field := func(f string) string {
		if a.Name == "" {
			return "application." + f
		}
		return fmt.Sprintf("application %q.%s", a.Name, f)
	}
	switch {
	case !isFinitePos(a.Work):
		return invalid(field("work"), a.Work, "needs finite positive work")
	case a.SeqFraction < 0 || a.SeqFraction > 1 || math.IsNaN(a.SeqFraction):
		return invalid(field("seq"), a.SeqFraction, "sequential fraction outside [0,1]")
	case a.AccessFreq < 0 || math.IsNaN(a.AccessFreq) || math.IsInf(a.AccessFreq, 0):
		return invalid(field("freq"), a.AccessFreq, "access frequency is not finite and >= 0")
	case a.RefMissRate < 0 || a.RefMissRate > 1 || math.IsNaN(a.RefMissRate):
		return invalid(field("missRate"), a.RefMissRate, "reference miss rate outside [0,1]")
	case !isFinitePos(a.RefCacheSize):
		return invalid(field("refCache"), a.RefCacheSize, "needs finite positive reference cache size")
	case math.IsNaN(a.Footprint) || math.IsInf(a.Footprint, 1):
		// A non-positive footprint means "unbounded" by convention; NaN
		// and +Inf must use that convention explicitly rather than
		// leaking into the footprint-cap arithmetic.
		return invalid(field("footprint"), a.Footprint, "not finite (use <= 0 for unbounded)")
	}
	return nil
}

// PerfectlyParallel reports whether the application has no sequential
// fraction (s_i = 0), the regime of the paper's Section 4 theory.
func (a Application) PerfectlyParallel() bool { return a.SeqFraction == 0 }

// MissRate evaluates the Power Law of Cache Misses (Eq. 1) for a cache of
// cacheSize bytes: min(1, m0 · (C0/C)^α). A zero or negative cacheSize
// yields a miss rate of 1 (every access misses), matching the model's
// reading that an absent cache provides no reuse.
func (a Application) MissRate(cacheSize, alpha float64) float64 {
	if cacheSize <= 0 {
		return 1
	}
	m := a.RefMissRate * math.Pow(a.RefCacheSize/cacheSize, alpha)
	return math.Min(1, m)
}

// D returns d_i = m0 · (C0/Cs)^α, the miss rate the application would
// incur if granted the whole cache, before the min-with-1 clamp
// (Section 3, "for notational convenience"). The fraction-of-cache
// formulation of Eq. 2 then reads miss(x) = min(1, d_i / x^α).
// Each call costs a math.Pow; hot paths read d_i from a per-solve
// Constants table instead.
func (a Application) D(pl Platform) float64 {
	return a.RefMissRate * refScale(pl, a.RefCacheSize)
}

// refScale returns (C0/Cs)^α, the factor d_i applies to a miss rate
// measured with a cache of c0 bytes.
func refScale(pl Platform, c0 float64) float64 {
	return math.Pow(c0/pl.CacheSize, pl.Alpha)
}

// Flops returns Fl_i(p) = s_i·w_i + (1-s_i)·w_i/p, the per-processor
// operation count under Amdahl's law when the application runs on p > 0
// (rational) processors.
func (a Application) Flops(p float64) float64 {
	return a.SeqFraction*a.Work + (1-a.SeqFraction)*a.Work/p
}

// CostPerOp returns the expected cost of one computing operation given a
// fraction x of the platform cache: 1 + f_i (ls + ll · miss), where miss
// follows Eq. 2 including the footprint cap (a fraction above
// a_i/Cs brings no further benefit).
func (a Application) CostPerOp(pl Platform, x float64) float64 {
	return a.CostPerOpD(pl, a.D(pl), x)
}

// CostPerOpD is CostPerOp given d = a.D(pl).
func (a Application) CostPerOpD(pl Platform, d, x float64) float64 {
	return 1 + a.AccessFreq*(pl.LatencyS+pl.LatencyL*a.missAtFraction(pl, d, x))
}

// missAtFraction evaluates min(1, d_i/x^α) with the footprint cap of
// Eq. 2's second case.
func (a Application) missAtFraction(pl Platform, d, x float64) float64 {
	if x < 0 {
		x = 0
	}
	if a.Footprint > 0 {
		if cap := a.Footprint / pl.CacheSize; x > cap {
			x = cap
		}
	}
	if x == 0 {
		return 1
	}
	return math.Min(1, d/math.Pow(x, pl.Alpha))
}

// Exe returns Exe_i(p, x) of Eq. 2: the completion time of the
// application on p rational processors with cache fraction x.
// It returns +Inf for p <= 0 on an application with parallel work, since
// no progress is possible without processors.
func (a Application) Exe(pl Platform, p, x float64) float64 {
	return a.ExeD(pl, a.D(pl), p, x)
}

// ExeD is Exe given d = a.D(pl).
func (a Application) ExeD(pl Platform, d, p, x float64) float64 {
	return a.ExeCost(p, a.CostPerOpD(pl, d, x))
}

// ExeCost is Exe given cost = a.CostPerOpD(pl, d, x): Flops(p)·cost,
// +Inf for p <= 0. Callers that already hold the cost of one operation
// at a cache fraction pay no second power law for the completion time.
func (a Application) ExeCost(p, cost float64) float64 {
	if p <= 0 {
		return math.Inf(1)
	}
	return a.Flops(p) * cost
}

// ExeSeq returns Exe_i(1, x), the sequential execution time with cache
// fraction x (the quantity written Exe^seq in the paper).
func (a Application) ExeSeq(pl Platform, x float64) float64 {
	return a.Exe(pl, 1, x)
}

// MinUsefulFraction returns d_i^{1/α}: by Eq. 3 any allotted fraction at
// or below this threshold is wasted (the min clamps to 1, as if no cache
// were given), so valid solutions have x_i = 0 or x_i > d_i^{1/α}.
func (a Application) MinUsefulFraction(pl Platform) float64 {
	return MinUsefulFractionD(pl, a.D(pl))
}

// MinUsefulFractionD is MinUsefulFraction given an application's d_i.
func MinUsefulFractionD(pl Platform, d float64) float64 {
	return math.Pow(d, 1/pl.Alpha)
}

// MaxUsefulFraction returns a_i/Cs clamped to [0, 1], beyond which extra
// cache brings no benefit (footprint cap). Unbounded footprints return 1.
func (a Application) MaxUsefulFraction(pl Platform) float64 {
	if a.Footprint <= 0 {
		return 1
	}
	return math.Min(1, a.Footprint/pl.CacheSize)
}

// DominanceWeight returns (w_i f_i d_i)^{1/(α+1)}, the numerator weight
// of Lemma 4's optimal cache shares.
func (a Application) DominanceWeight(pl Platform) float64 {
	return a.DominanceWeightD(pl, a.D(pl))
}

// DominanceWeightD is DominanceWeight given d = a.D(pl).
func (a Application) DominanceWeightD(pl Platform, d float64) float64 {
	return math.Pow(a.Work*a.AccessFreq*d, 1/(pl.Alpha+1))
}

// DominanceRatio returns r_i = (w_i f_i d_i)^{1/(α+1)} / d_i^{1/α}, the
// quantity compared against Σ_j (w_j f_j d_j)^{1/(α+1)} in Definition 4.
// Applications with larger r_i tolerate sharing the cache with more
// co-runners before their share becomes useless.
func (a Application) DominanceRatio(pl Platform) float64 {
	return a.DominanceWeight(pl) / a.MinUsefulFraction(pl)
}

// Constants is the table of per-application model constants of one
// solve: for every application i on the platform, d_i, the useless-share
// threshold d_i^{1/α} of Definition 4 and the dominance weight
// (w_i f_i d_i)^{1/(α+1)} of Lemma 4. None of them reads SeqFraction, so
// a table also serves any proxy of the applications that differs only
// in s_i. Each entry is the value D, MinUsefulFraction and
// DominanceWeight return, bit for bit.
type Constants struct {
	D         []float64 // d_i
	Threshold []float64 // d_i^{1/α}
	Weight    []float64 // (w_i f_i d_i)^{1/(α+1)}
}

// Fill computes the whole table for apps on pl, reusing the table's
// backing arrays when they are large enough.
func (c *Constants) Fill(pl Platform, apps []Application) {
	c.FillD(pl, apps)
	c.Complete(pl, apps)
}

// Complete computes the threshold and weight columns from the d_i
// column FillD left for the same (pl, apps): Fill is FillD then
// Complete, so a caller that learns only later that it needs the whole
// table pays no second d_i column.
func (c *Constants) Complete(pl Platform, apps []Application) {
	c.Threshold = grow(c.Threshold, len(apps))
	c.Weight = grow(c.Weight, len(apps))
	for i, a := range apps {
		c.Threshold[i] = MinUsefulFractionD(pl, c.D[i])
		c.Weight[i] = a.DominanceWeightD(pl, c.D[i])
	}
}

// FillD computes only the d_i column, for callers that read nothing
// else: the other two columns each cost a math.Pow per application.
// It empties them, so a partial table cannot pass for a whole one.
func (c *Constants) FillD(pl Platform, apps []Application) {
	c.D = grow(c.D, len(apps))
	// Applications measured at the same reference cache size share the
	// factor (C0/Cs)^α, so a run of bit-identical C0 computes it once.
	var c0 uint64
	var scale float64
	for i, a := range apps {
		if b := math.Float64bits(a.RefCacheSize); i == 0 || b != c0 {
			c0, scale = b, refScale(pl, a.RefCacheSize)
		}
		c.D[i] = a.RefMissRate * scale
	}
	c.Threshold, c.Weight = c.Threshold[:0], c.Weight[:0]
}

// grow returns a slice of length n, reusing s's backing array when
// possible.
func grow(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// ErrEmptySet is returned by operations that need at least one application.
var ErrEmptySet = errors.New("model: empty application set")

// ValidateAll validates the platform and every application, returning the
// first problem found.
func ValidateAll(pl Platform, apps []Application) error {
	if err := pl.Validate(); err != nil {
		return err
	}
	if len(apps) == 0 {
		return ErrEmptySet
	}
	for i, a := range apps {
		if err := a.Validate(); err != nil {
			return fmt.Errorf("app %d: %w", i, err)
		}
	}
	return nil
}
