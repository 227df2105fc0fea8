// Package genscen generates seeded random co-scheduling scenarios for
// the conformance harness (cmd/conform): named workload families that
// cover the regimes the heuristics were designed for (Amdahl-dominated
// mixes, cache-bound sets, latency-dominated sets) and the degenerate
// corners that historically break schedulers (near-zero work, single
// applications, exact dominance-ratio ties, near-overflow magnitudes).
//
// One (family, seed) pair deterministically fixes an Instance: a
// platform plus an application set. The same Instance can be projected
// into every execution layer of the repository — a portfolio.Scenario
// for the static engines, a des.Scenario (all jobs at t = 0) for the
// static/online equivalence check, and a des.Spec with staggered replay
// arrivals for the online simulator — so differential tests drive every
// layer from identical inputs.
package genscen

import (
	"fmt"
	"strings"

	"repro/internal/des"
	"repro/internal/model"
	"repro/internal/portfolio"
	"repro/internal/sched"
	"repro/internal/solve"
)

// Family names one scenario generator.
type Family int

const (
	// AmdahlMix is the bread-and-butter regime: NPB-synth-like work
	// spans, heterogeneous sequential fractions up to 30%, unbounded
	// footprints. Processor allocation matters as much as cache.
	AmdahlMix Family = iota
	// CacheBound stresses the cache partitioning decision: perfectly
	// parallel applications, small caches, high access frequencies and
	// miss rates, half the applications with bounded footprints. The
	// bounded footprints void the closed-form optimality preconditions
	// (Theorems 2–3 assume a_i = ∞), so the oracle is a bound here, not
	// the exact optimum.
	CacheBound
	// LatencyDominated makes the miss penalty dominate compute: very
	// large ll/ls ratios, so tiny share differences move the makespan.
	LatencyDominated
	// ZeroWork is the near-degenerate corner: work values many orders of
	// magnitude below the paper's range, some applications with zero
	// access frequency (dominance ratio exactly 0) and some additionally
	// with zero reference miss rate (d_i = 0, an infinite dominance
	// ratio). Perfectly parallel, unbounded footprints, so the oracle is
	// exact.
	ZeroWork
	// SingleApp generates one-application instances, the smallest
	// boundary of every loop in the stack.
	SingleApp
	// EqualFootprint generates n identical clones with equal bounded
	// footprints: every dominance ratio ties exactly, stressing
	// order-dependence of sorts and tie-breaking.
	EqualFootprint
	// NearOverflow draws work values up to 1e200 and memory latencies up
	// to 1e6, probing the float64 headroom of every accumulation in the
	// pipeline (the equalizer's bracket doubling, Kahan sums, the DES
	// clock).
	NearOverflow
)

// Families lists every family in presentation order.
var Families = []Family{
	AmdahlMix, CacheBound, LatencyDominated, ZeroWork,
	SingleApp, EqualFootprint, NearOverflow,
}

// String implements fmt.Stringer with the harness's kebab-case names.
func (f Family) String() string {
	switch f {
	case AmdahlMix:
		return "amdahl-mix"
	case CacheBound:
		return "cache-bound"
	case LatencyDominated:
		return "latency-dominated"
	case ZeroWork:
		return "zero-work"
	case SingleApp:
		return "single-app"
	case EqualFootprint:
		return "equal-footprint"
	case NearOverflow:
		return "near-overflow"
	default:
		return fmt.Sprintf("Family(%d)", int(f))
	}
}

// ParseFamily resolves a family name as produced by String.
func ParseFamily(name string) (Family, error) {
	for _, f := range Families {
		if f.String() == name {
			return f, nil
		}
	}
	return 0, fmt.Errorf("genscen: unknown family %q", name)
}

// ParseFamilies resolves a comma-separated family list; empty input
// means every family.
func ParseFamilies(spec string) ([]Family, error) {
	if strings.TrimSpace(spec) == "" {
		return append([]Family(nil), Families...), nil
	}
	var out []Family
	for _, name := range strings.Split(spec, ",") {
		f, err := ParseFamily(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}

// OracleExact reports whether the family generates only instances on
// which the subset/closed-form oracle is provably optimal (perfectly
// parallel applications with unbounded footprints, Theorems 2–3): on
// those, a heuristic beating the oracle is itself a violation.
func (f Family) OracleExact() bool {
	return f == ZeroWork
}

// Config bounds instance sizes.
type Config struct {
	// MinApps/MaxApps bound the application count (inclusive). Zero
	// values default to 2 and 6 — small enough for the brute-force
	// oracle, large enough for non-trivial partitions. SingleApp
	// ignores both.
	MinApps, MaxApps int
}

func (c Config) bounds() (lo, hi int, err error) {
	lo, hi = c.MinApps, c.MaxApps
	if lo == 0 && hi == 0 {
		lo, hi = 2, 6
	}
	if lo < 1 || hi < lo {
		return 0, 0, fmt.Errorf("genscen: app bounds [%d, %d] invalid", lo, hi)
	}
	return lo, hi, nil
}

// Instance is one fully specified scheduling problem.
type Instance struct {
	Family   Family
	Seed     uint64
	Platform model.Platform
	Apps     []model.Application
}

// Generate produces the (family, seed) instance under cfg. The result
// is a pure function of its arguments.
func Generate(f Family, seed uint64, cfg Config) (*Instance, error) {
	lo, hi, err := cfg.bounds()
	if err != nil {
		return nil, err
	}
	rng := solve.NewRNG(solve.Substream(seed, uint64(f)+1))
	n := lo
	if hi > lo {
		n = lo + rng.Intn(hi-lo+1)
	}
	in := &Instance{Family: f, Seed: seed}
	switch f {
	case AmdahlMix:
		in.Platform = stdPlatform(rng)
		in.Apps = amdahlMixApps(rng, n)
	case CacheBound:
		in.Platform = stdPlatform(rng)
		in.Platform.CacheSize = rng.LogUniform(1e6, 4e7) // tight cache
		in.Apps = cacheBoundApps(rng, n, in.Platform.CacheSize)
	case LatencyDominated:
		in.Platform = stdPlatform(rng)
		in.Platform.LatencyS = rng.UniformRange(0.01, 0.1)
		in.Platform.LatencyL = rng.UniformRange(50, 500)
		in.Apps = latencyApps(rng, n)
	case ZeroWork:
		in.Platform = stdPlatform(rng)
		in.Apps = zeroWorkApps(rng, n)
	case SingleApp:
		in.Platform = stdPlatform(rng)
		in.Apps = amdahlMixApps(rng, 1)
	case EqualFootprint:
		in.Platform = stdPlatform(rng)
		in.Apps = cloneApps(rng, n, in.Platform.CacheSize)
	case NearOverflow:
		in.Platform = stdPlatform(rng)
		in.Platform.LatencyL = rng.LogUniform(1, 1e6)
		in.Apps = overflowApps(rng, n)
	default:
		return nil, fmt.Errorf("genscen: unknown family %v", f)
	}
	if err := model.ValidateAll(in.Platform, in.Apps); err != nil {
		return nil, fmt.Errorf("genscen: %s seed %d generated an invalid instance: %w", f, seed, err)
	}
	return in, nil
}

// stdPlatform draws a platform in the paper's neighborhood: 4–64
// processors, 1 MB–1 GB LLC, α ∈ [0.3, 0.7] (the literature's range).
func stdPlatform(rng *solve.RNG) model.Platform {
	return model.Platform{
		Processors: float64(4 + rng.Intn(61)),
		CacheSize:  rng.LogUniform(1e6, 1e9),
		LatencyS:   rng.UniformRange(0.05, 0.5),
		LatencyL:   rng.UniformRange(1, 4),
		Alpha:      rng.UniformRange(0.3, 0.7),
	}
}

const refCache = 40e6 // Table 2's measurement cache size

func amdahlMixApps(rng *solve.RNG, n int) []model.Application {
	apps := make([]model.Application, n)
	for i := range apps {
		apps[i] = model.Application{
			Name:         fmt.Sprintf("amdahl-%d", i),
			Work:         rng.LogUniform(1e8, 1e12),
			SeqFraction:  rng.UniformRange(0.01, 0.3),
			AccessFreq:   rng.UniformRange(0.1, 0.9),
			RefMissRate:  rng.UniformRange(9e-4, 1e-2),
			RefCacheSize: refCache,
		}
	}
	return apps
}

func cacheBoundApps(rng *solve.RNG, n int, cacheSize float64) []model.Application {
	apps := make([]model.Application, n)
	for i := range apps {
		a := model.Application{
			Name:         fmt.Sprintf("cache-%d", i),
			Work:         rng.LogUniform(1e8, 1e11),
			AccessFreq:   rng.UniformRange(0.6, 0.95),
			RefMissRate:  rng.UniformRange(5e-3, 5e-2),
			RefCacheSize: refCache,
		}
		if i%2 == 1 {
			// Bounded footprint between 30% and 150% of the LLC: both the
			// binding and the non-binding side of the footprint cap.
			a.Footprint = cacheSize * rng.UniformRange(0.3, 1.5)
		}
		apps[i] = a
	}
	return apps
}

func latencyApps(rng *solve.RNG, n int) []model.Application {
	apps := make([]model.Application, n)
	for i := range apps {
		apps[i] = model.Application{
			Name:         fmt.Sprintf("lat-%d", i),
			Work:         rng.LogUniform(1e7, 1e10),
			SeqFraction:  rng.UniformRange(0, 0.1),
			AccessFreq:   rng.UniformRange(0.5, 0.95),
			RefMissRate:  rng.UniformRange(1e-3, 5e-2),
			RefCacheSize: refCache,
		}
	}
	return apps
}

func zeroWorkApps(rng *solve.RNG, n int) []model.Application {
	apps := make([]model.Application, n)
	for i := range apps {
		a := model.Application{
			Name:         fmt.Sprintf("zero-%d", i),
			Work:         rng.LogUniform(1e-6, 1), // far below the paper's 1e8 floor
			AccessFreq:   rng.UniformRange(0.1, 0.9),
			RefMissRate:  rng.UniformRange(9e-4, 1e-2),
			RefCacheSize: refCache,
		}
		switch rng.Intn(3) {
		case 0:
			// Pure compute with nonzero miss rate: dominance weight 0 but
			// threshold > 0, so the dominance ratio is exactly 0.
			a.AccessFreq = 0
		case 1:
			// d_i = 0 AND no accesses: the infinite-dominance-ratio path.
			// The miss rate must be zeroed together with the frequency —
			// an m_0 = 0 application with f > 0 sits on a modeling
			// discontinuity (miss 1 at x = 0, miss 0 at any x > 0) where
			// the closed-form share calculus is not optimal and the
			// oracle-exactness of this family would not hold.
			a.AccessFreq = 0
			a.RefMissRate = 0
		}
		apps[i] = a
	}
	return apps
}

func cloneApps(rng *solve.RNG, n int, cacheSize float64) []model.Application {
	base := model.Application{
		Work:         rng.LogUniform(1e8, 1e12),
		SeqFraction:  rng.UniformRange(0.01, 0.15),
		AccessFreq:   rng.UniformRange(0.3, 0.9),
		RefMissRate:  rng.UniformRange(9e-4, 1e-2),
		RefCacheSize: refCache,
		Footprint:    cacheSize * rng.UniformRange(0.2, 0.8),
	}
	apps := make([]model.Application, n)
	for i := range apps {
		a := base
		a.Name = fmt.Sprintf("clone-%d", i)
		apps[i] = a
	}
	return apps
}

func overflowApps(rng *solve.RNG, n int) []model.Application {
	apps := make([]model.Application, n)
	for i := range apps {
		apps[i] = model.Application{
			Name:         fmt.Sprintf("huge-%d", i),
			Work:         rng.LogUniform(1e120, 1e200),
			SeqFraction:  rng.UniformRange(0, 0.05),
			AccessFreq:   rng.UniformRange(0.1, 0.9),
			RefMissRate:  rng.LogUniform(1e-8, 1e-2),
			RefCacheSize: refCache,
		}
	}
	return apps
}

// CloneApps returns a defensive copy of the instance's application
// slice, so callers can mutate (scale, permute) without aliasing.
func (in *Instance) CloneApps() []model.Application {
	return append([]model.Application(nil), in.Apps...)
}

// PortfolioScenario projects the instance into the static portfolio
// engine. hs selects the heuristics to race (nil = the full extended
// set).
func (in *Instance) PortfolioScenario(hs []sched.Heuristic) portfolio.Scenario {
	return portfolio.Scenario{
		Platform:   in.Platform,
		Apps:       in.CloneApps(),
		Heuristics: hs,
		Seed:       in.Seed,
	}
}

// StaticDES projects the instance into the online simulator's
// degenerate offline case: every job arrives at t = 0 and the
// no-repartition wave policy wraps h. By the des package's equivalence
// property this must reproduce internal/sim's static execution of h's
// schedule bit-for-bit.
func (in *Instance) StaticDES(h sched.Heuristic) (des.Scenario, error) {
	arrivals := make([]des.Arrival, len(in.Apps))
	for i, a := range in.Apps {
		arrivals[i] = des.Arrival{Time: 0, App: a}
	}
	proc, err := des.NewReplay(arrivals)
	if err != nil {
		return des.Scenario{}, err
	}
	pol, err := des.NewNoRepartition(h, in.Seed)
	if err != nil {
		return des.Scenario{}, err
	}
	return des.Scenario{Platform: in.Platform, Arrivals: proc, Policy: pol}, nil
}

// OnlineSpec projects the instance into a des.Spec with staggered
// replay arrivals: job i arrives at i·span/n, so jobs overlap and the
// policy repartitions mid-flight. span should be on the order of the
// static makespan so the stagger is neither negligible nor serializing.
// The spec is the same wire format cmd/dessim consumes, so a failing
// seed can be replayed there verbatim.
func (in *Instance) OnlineSpec(policy string, span float64) (*des.Spec, error) {
	if !(span >= 0) {
		return nil, fmt.Errorf("genscen: online span must be >= 0, got %v", span)
	}
	n := len(in.Apps)
	replay := make([]des.ReplaySpec, n)
	for i, a := range in.Apps {
		app := des.AppSpec{
			Name: a.Name, Work: a.Work, Seq: a.SeqFraction, Freq: a.AccessFreq,
			MissRate: a.RefMissRate, RefCache: a.RefCacheSize, Footprint: a.Footprint,
		}
		replay[i] = des.ReplaySpec{Time: span * float64(i) / float64(n), App: &app}
	}
	pl := in.Platform
	sp := &des.Spec{
		Platform: &des.PlatformSpec{
			Processors: pl.Processors, CacheSize: pl.CacheSize,
			LatencyS: pl.LatencyS, LatencyL: pl.LatencyL, Alpha: pl.Alpha,
		},
		Arrivals: des.ArrivalSpec{Process: "replay", Replay: replay},
		Policy:   policy,
		Seed:     in.Seed,
	}
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	return sp, nil
}
