package des

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/model"
	"repro/internal/portfolio"
	"repro/internal/sched"
	"repro/internal/selector"
	"repro/internal/solve"
)

// Resident is the engine's view of one job currently on the node, as
// presented to the online policy.
type Resident struct {
	Job int               // job id
	App model.Application // original profile (full work)
	// Remaining is the fraction of the job's work left, in (0, 1].
	Remaining float64
	// Assign is the job's current allocation; zero for jobs that just
	// arrived or are parked with no resources.
	Assign sched.Assignment
	// Started reports whether the job has ever held processors.
	Started bool
}

// Policy decides, at every arrival and completion, how the platform's
// processors and cache are split among the resident jobs. Allocations
// must respect the platform budgets (Σp ≤ p, Σx ≤ 1); the engine
// validates and rejects overruns. A zero assignment parks a job (it
// makes no progress until a later repartition). Policies may keep
// internal state (invocation counters for RNG substreams); they must be
// deterministic functions of their construction parameters and the
// sequence of Allocate calls.
type Policy interface {
	// Allocate returns one assignment per resident, in resident order.
	Allocate(pl model.Platform, residents []Resident) ([]sched.Assignment, error)
	// Name identifies the policy in reports and error messages.
	Name() string
}

// ReplanStats is the delta-rescheduling telemetry of an online policy:
// how often an Allocate call was served entirely by certified memoized
// plans versus falling back to a full solve, plus the underlying plan
// memo's hit/miss counters (which count per-heuristic lookups, so for
// the portfolio policy they run ahead of the per-call counters).
type ReplanStats struct {
	// FastPath counts Allocate calls answered without running any
	// deterministic solver: every deterministic plan came from the memo,
	// certified bit-equivalent by its exact input fingerprint.
	FastPath uint64 `json:"fastPath"`
	// FullSolve counts Allocate calls that ran the full (cold) solve —
	// first-seen resident shapes, evicted entries, or full-replan mode.
	FullSolve uint64 `json:"fullSolve"`
	// MemoHits / MemoMisses are the plan memo's per-lookup counters.
	MemoHits   uint64 `json:"memoHits"`
	MemoMisses uint64 `json:"memoMisses"`
	// MemoEvictions counts plans the memo's FIFO capacity bound dropped;
	// a high rate on a recurring workload means the memo is undersized
	// for the resident-shape variety.
	MemoEvictions uint64 `json:"memoEvictions,omitempty"`
}

// Add accumulates s into r (used by conform's per-family aggregation).
func (r *ReplanStats) Add(s ReplanStats) {
	r.FastPath += s.FastPath
	r.FullSolve += s.FullSolve
	r.MemoHits += s.MemoHits
	r.MemoMisses += s.MemoMisses
	r.MemoEvictions += s.MemoEvictions
}

// HitRate returns the memo hit fraction, or 0 for an untouched memo.
func (r ReplanStats) HitRate() float64 {
	total := r.MemoHits + r.MemoMisses
	if total == 0 {
		return 0
	}
	return float64(r.MemoHits) / float64(total)
}

// residualApps builds the application set a policy hands to the paper's
// heuristics: each resident's profile with its work scaled to what is
// left, so remaining work is charged under the shares decided now. A
// fresh job (Remaining == 1) is passed through bit-identically. The
// result reuses buf's backing array when large enough — policies keep a
// private buffer so per-event replanning does not allocate (nothing
// downstream retains the slice past the Allocate call).
func residualApps(buf []model.Application, residents []Resident) []model.Application {
	apps := buf
	if cap(apps) < len(residents) {
		apps = make([]model.Application, len(residents))
	}
	apps = apps[:len(residents)]
	for i, r := range residents {
		a := r.App
		a.Work *= r.Remaining
		// A resident parked a hair above the completion tolerance can
		// have Remaining so small that the product underflows to zero —
		// an app the model validators reject (Work must be > 0) and the
		// heuristics would mis-rank. Clamp to the smallest positive
		// denormal: still "essentially finished" for every ranking
		// purpose, but a valid application.
		if a.Work == 0 {
			a.Work = math.SmallestNonzeroFloat64
		}
		apps[i] = a
	}
	return apps
}

// HeuristicPolicy repartitions with one of the paper's heuristics at
// every decision point, rescheduling the residual work of every
// resident job. For deterministic heuristics it replans through a
// sched.PlanMemo: a recurring resident shape (waves of template jobs
// under a residency cap) is served by the memoized plan, certified
// bit-equivalent to a cold solve by its exact input fingerprint.
// Randomized heuristics always re-solve — their per-call RNG substream
// never repeats, so no cached plan can be certified.
type HeuristicPolicy struct {
	h     sched.Heuristic
	seed  uint64
	calls uint64
	full  bool
	memo  *sched.PlanMemo
	stats ReplanStats
	apps  []model.Application // residual-work plan buffer, recycled
}

// NewHeuristicPolicy returns a policy wrapping h. Sequential heuristics
// (AllProcCache) cannot express a concurrent repartition and are
// rejected. The seed drives the randomized heuristics; each invocation
// uses its own substream so replanning decisions stay independent.
func NewHeuristicPolicy(h sched.Heuristic, seed uint64) (*HeuristicPolicy, error) {
	if h == sched.AllProcCache {
		return nil, fmt.Errorf("des: %v is sequential and cannot drive online repartitioning", h)
	}
	return &HeuristicPolicy{h: h, seed: seed, memo: sched.NewPlanMemo(0)}, nil
}

// SetFullReplan disables (true) or re-enables (false) the delta
// fast path, forcing every Allocate call through a cold solve. The
// conform equivalence sweep runs both modes and compares event logs
// bit-for-bit; the ":full" policy-spec suffix exposes it on the wire.
func (p *HeuristicPolicy) SetFullReplan(full bool) { p.full = full }

// ReplanStats reports the delta-rescheduling telemetry; the engine
// copies it into Result.Replan.
func (p *HeuristicPolicy) ReplanStats() ReplanStats {
	st := p.stats
	ms := p.memo.Stats()
	st.MemoHits, st.MemoMisses, st.MemoEvictions = ms.Hits, ms.Misses, ms.Evictions
	return st
}

// Allocate implements Policy.
func (p *HeuristicPolicy) Allocate(pl model.Platform, residents []Resident) ([]sched.Assignment, error) {
	p.calls++
	// Deterministic heuristics never read the RNG; skipping its
	// construction is bit-identical and keeps the fast path
	// allocation-free. The call counter still advances so the substream
	// schedule is independent of the heuristic kind.
	var rng *solve.RNG
	if p.h.Randomized() {
		rng = solve.NewRNG(solve.Substream(p.seed, p.calls))
	}
	p.apps = residualApps(p.apps, residents)
	memo := p.memo
	if p.full {
		memo = nil
	}
	s, fromMemo, err := p.h.ScheduleWarm(pl, p.apps, rng, memo)
	if err != nil {
		return nil, &sched.HeuristicError{Heuristic: p.h, Err: err}
	}
	if fromMemo {
		p.stats.FastPath++
	} else {
		p.stats.FullSolve++
	}
	if s.Sequential {
		return nil, fmt.Errorf("des: heuristic %v produced a sequential schedule", p.h)
	}
	return s.Assignments, nil
}

// Name implements Policy.
func (p *HeuristicPolicy) Name() string { return "heuristic:" + p.h.String() }

// onlineHeuristics is the portfolio raced by PortfolioPolicy: every
// extended heuristic except the sequential AllProcCache baseline.
func onlineHeuristics() []sched.Heuristic {
	hs := make([]sched.Heuristic, 0, len(sched.ExtendedHeuristics))
	for _, h := range sched.ExtendedHeuristics {
		if h != sched.AllProcCache {
			hs = append(hs, h)
		}
	}
	return hs
}

// PortfolioPolicy races the whole heuristic portfolio over the residual
// workload at every decision point and applies the winner — the
// portfolio engine turned into an online repartitioner. The race runs
// serially on the simulating goroutine; results are bit-deterministic
// at any pool size, so the simulation is too.
//
// Delta rescheduling: the policy keeps a sched.PlanMemo of the
// deterministic heuristics' plans, keyed by the exact bit pattern of
// (heuristic, platform, residual apps) — names excluded, so waves of
// re-stamped template jobs ("cg#17") fingerprint identically. When
// every deterministic heuristic hits the memo, the policy skips the
// engine race entirely: it replays the certified plans, re-solves only
// the randomized heuristics (their per-call substreams never repeat, so
// they are never memoizable) with exactly the seeds the engine would
// have derived, and picks the winner with the engine's own selection
// rule. Any miss falls back to the full race, whose deterministic
// results then seed the memo. Event logs are bit-identical either way.
type PortfolioPolicy struct {
	engine *portfolio.Engine
	hs     []sched.Heuristic
	seed   uint64
	calls  uint64
	full   bool
	memo   *sched.PlanMemo
	stats  ReplanStats
	apps   []model.Application // residual-work plan buffer, recycled
	rs     []portfolio.Result  // fast-path result buffer, recycled

	// Learned selection ("portfolio:selector"): when a ledger is set,
	// Allocate first asks it for a confident predicted winner and, when
	// it gets one, solves only that heuristic — on the exact substream
	// the race would have given it — instead of racing the portfolio.
	// A nil or empty ledger predicts nothing, so the policy is then
	// bit-identical to plain "portfolio".
	selMode     bool
	ledger      *selector.Ledger
	th          selector.Thresholds
	predictions uint64
	fallbacks   uint64
}

// NewPortfolioPolicy returns a portfolio-driven policy. A nil engine
// gets a private one with the given worker bound (< 1 = GOMAXPROCS).
// A non-nil engine is shared for its worker pool and metrics only: the
// policy races on engine.Uncached(), so it never reads or fills the
// engine's memoization cache. That cache keys on job names, which the
// online job stream re-stamps per arrival, so it would only accumulate
// dead entries — recurring resident *shapes* are instead served by the
// policy's own name-insensitive plan memo.
func NewPortfolioPolicy(engine *portfolio.Engine, workers int, seed uint64) *PortfolioPolicy {
	if engine == nil {
		engine = portfolio.New(portfolio.Config{Workers: workers})
	}
	return &PortfolioPolicy{engine: engine.Uncached(), hs: onlineHeuristics(), seed: seed, memo: sched.NewPlanMemo(0)}
}

// SetFullReplan disables (true) or re-enables (false) the delta
// fast path, forcing every Allocate call through the full engine race.
// The conform equivalence sweep runs both modes and compares event logs
// bit-for-bit; the ":full" policy-spec suffix exposes it on the wire.
func (p *PortfolioPolicy) SetFullReplan(full bool) { p.full = full }

// SetLedger switches the policy into learned-selection mode backed by
// l (nil keeps selector mode with an always-fallback empty ledger).
// The zero Thresholds means selector.DefaultThresholds(). Callers that
// parsed a "portfolio:selector" spec inject the trained ledger here —
// the ledger is runtime state, never part of the wire spec.
func (p *PortfolioPolicy) SetLedger(l *selector.Ledger, th selector.Thresholds) {
	p.selMode = true
	p.ledger = l
	if th == (selector.Thresholds{}) {
		th = selector.DefaultThresholds()
	}
	p.th = th
}

// SelectorStats reports how many Allocate calls were served by the
// predicted winner versus by a race (zero unless in selector mode).
func (p *PortfolioPolicy) SelectorStats() (predictions, fallbacks uint64) {
	return p.predictions, p.fallbacks
}

// ConfigureSelector injects a trained ledger into pol when it is a
// selector-mode portfolio policy, reporting whether it did. The
// simulators call this after ParsePolicy: the spec string selects the
// mode ("portfolio:selector"), the caller supplies the ledger.
func ConfigureSelector(pol Policy, l *selector.Ledger, th selector.Thresholds) bool {
	pp, ok := pol.(*PortfolioPolicy)
	if !ok || !pp.selMode {
		return false
	}
	pp.SetLedger(l, th)
	return true
}

// ReplanStats reports the delta-rescheduling telemetry; the engine
// copies it into Result.Replan.
func (p *PortfolioPolicy) ReplanStats() ReplanStats {
	st := p.stats
	ms := p.memo.Stats()
	st.MemoHits, st.MemoMisses, st.MemoEvictions = ms.Hits, ms.Misses, ms.Evictions
	return st
}

// Allocate implements Policy.
func (p *PortfolioPolicy) Allocate(pl model.Platform, residents []Resident) ([]sched.Assignment, error) {
	p.calls++
	// The engine derives heuristic hi's stream as substream hi+1 of
	// Seed, with the same solve.Substream stride this package uses, so
	// a plain substream calls here would cancel whenever calls == hi+1
	// and hand randomized heuristics systematically colliding streams.
	// Mixing the per-call seed through SplitMix64 (one RNG step)
	// decorrelates the two layers.
	p.apps = residualApps(p.apps, residents)
	scSeed := solve.NewRNG(solve.Substream(p.seed, p.calls)).Uint64()
	if p.selMode {
		if asg, ok, err := p.predictPath(pl, scSeed); ok {
			p.predictions++
			return asg, err
		}
		p.fallbacks++
	}
	if !p.full {
		if asg, ok, err := p.fastPath(pl, scSeed); ok {
			p.stats.FastPath++
			return asg, err
		}
	}
	p.stats.FullSolve++
	rep, err := p.engine.Evaluate(portfolio.Scenario{
		Platform:   pl,
		Apps:       p.apps,
		Heuristics: p.hs,
		Seed:       scSeed,
	})
	if err != nil {
		return nil, err
	}
	// Seed the memo with this race's deterministic plans so the next
	// recurrence of the same resident shape takes the fast path.
	for i := range rep.Results {
		if res := &rep.Results[i]; res.Err == nil {
			p.memo.Put(p.hs[i], pl, p.apps, res.Schedule)
		}
	}
	best := rep.BestResult()
	if best == nil {
		return nil, fmt.Errorf("des: no heuristic produced a feasible repartition")
	}
	return best.Schedule.Assignments, nil
}

// fastPath attempts the certified delta path: every deterministic
// heuristic's plan must come from the memo (any miss returns ok=false
// and defers to the full race), the randomized heuristics are re-solved
// with exactly the per-heuristic seeds engine.Evaluate would derive
// (portfolio.HeuristicSeed), and the winner is selected with the
// engine's own rule (portfolio.BestIndex) so ties break identically.
// Bit-equivalence with the full race follows: memoized plans are
// certified by their exact input fingerprints, and every non-memoized
// computation reproduces the engine's arithmetic verbatim.
func (p *PortfolioPolicy) fastPath(pl model.Platform, scSeed uint64) ([]sched.Assignment, bool, error) {
	rs := p.rs
	if cap(rs) < len(p.hs) {
		rs = make([]portfolio.Result, len(p.hs))
	}
	rs = rs[:len(p.hs)]
	p.rs = rs
	for hi, h := range p.hs {
		if h.Randomized() {
			continue
		}
		s, ok := p.memo.Get(h, pl, p.apps)
		if !ok {
			return nil, false, nil
		}
		rs[hi] = portfolio.Result{Heuristic: h, Schedule: s}
	}
	for hi, h := range p.hs {
		if !h.Randomized() {
			continue
		}
		s, err := h.Schedule(pl, p.apps, solve.NewRNG(portfolio.HeuristicSeed(scSeed, hi)))
		if err != nil {
			err = &sched.HeuristicError{Heuristic: h, Err: err}
		}
		rs[hi] = portfolio.Result{Heuristic: h, Schedule: s, Err: err}
	}
	best := portfolio.BestIndex(rs)
	if best < 0 {
		return nil, true, fmt.Errorf("des: no heuristic produced a feasible repartition")
	}
	return rs[best].Schedule.Assignments, true, nil
}

// predictPath solves only the ledger's confidently predicted winner,
// drawing the exact RNG substream the full race would have handed it
// at its index (portfolio.HeuristicSeed), so the resulting plan is
// bit-identical to that heuristic's lane of the race. ok is false —
// deferring to the race — when the ledger has no confident call or the
// predicted heuristic fails on this residual workload.
func (p *PortfolioPolicy) predictPath(pl model.Platform, scSeed uint64) ([]sched.Assignment, bool, error) {
	if p.ledger == nil {
		return nil, false, nil
	}
	bucket := selector.Extract(pl, p.apps).Bucket()
	pred, ok := p.ledger.Predict(bucket, p.hs)
	if !ok || !pred.Confident(p.th) {
		return nil, false, nil
	}
	hi := 0
	for i, h := range p.hs {
		if h == pred.Heuristic {
			hi = i
			break
		}
	}
	var rng *solve.RNG
	if pred.Heuristic.Randomized() {
		rng = solve.NewRNG(portfolio.HeuristicSeed(scSeed, hi))
	}
	s, err := pred.Heuristic.Schedule(pl, p.apps, rng)
	if err != nil || s.Sequential {
		return nil, false, nil
	}
	return s.Assignments, true, nil
}

// Name implements Policy.
func (p *PortfolioPolicy) Name() string {
	if p.selMode {
		return "portfolio:selector"
	}
	return "portfolio"
}

// NoRepartition schedules jobs in waves: when the node is idle it
// allocates the whole resident set with the wrapped heuristic and then
// freezes — jobs arriving mid-wave wait (zero allocation) until the
// wave drains. With every job present at t = 0 this reproduces the
// paper's static setting exactly; it is also the natural baseline that
// quantifies what dynamic repartitioning buys.
type NoRepartition struct {
	h     sched.Heuristic
	seed  uint64
	calls uint64
	apps  []model.Application // residual-work plan buffer, recycled
	frzn  []sched.Assignment  // frozen-wave assignment buffer, recycled
}

// NewNoRepartition returns the wave-scheduling policy around h.
func NewNoRepartition(h sched.Heuristic, seed uint64) (*NoRepartition, error) {
	if h == sched.AllProcCache {
		return nil, fmt.Errorf("des: %v is sequential and cannot drive online scheduling", h)
	}
	return &NoRepartition{h: h, seed: seed}, nil
}

// Allocate implements Policy.
func (p *NoRepartition) Allocate(pl model.Platform, residents []Resident) ([]sched.Assignment, error) {
	for _, r := range residents {
		// A wave counts as running only while some resident is actually
		// progressing: holding processors AND having a finite execution
		// time under its current allocation. Gating on Processors > 0
		// alone deadlocks the node when a resident is stuck with a
		// nonzero assignment that yields Exe = +Inf (degenerate
		// work/latency inputs): it never finishes, so the "wave" never
		// drains and every later arrival is frozen out forever. Such a
		// stuck resident instead lets the next decision point fall
		// through to a fresh wave that reschedules everything resident.
		if r.Assign.Processors > 0 && !math.IsInf(r.App.Exe(pl, r.Assign.Processors, r.Assign.CacheShare), 1) {
			// A wave is running: freeze every current allocation; new
			// arrivals keep their zero assignment and wait. The engine
			// consumes the returned slice before the next Allocate call,
			// so the buffer is safely recycled.
			asg := p.frzn
			if cap(asg) < len(residents) {
				asg = make([]sched.Assignment, len(residents))
			}
			asg = asg[:len(residents)]
			p.frzn = asg
			for i, rr := range residents {
				asg[i] = rr.Assign
			}
			return asg, nil
		}
	}
	// Node drained (or first wave): schedule everything resident.
	p.calls++
	rng := solve.NewRNG(solve.Substream(p.seed, p.calls))
	p.apps = residualApps(p.apps, residents)
	s, err := p.h.Schedule(pl, p.apps, rng)
	if err != nil {
		return nil, &sched.HeuristicError{Heuristic: p.h, Err: err}
	}
	if s.Sequential {
		return nil, fmt.Errorf("des: heuristic %v produced a sequential schedule", p.h)
	}
	return s.Assignments, nil
}

// Name implements Policy.
func (p *NoRepartition) Name() string { return "norepartition:" + p.h.String() }

// ParsePolicy resolves a policy specification string:
//
//	"portfolio"                race all concurrent heuristics, keep the winner
//	"portfolio:selector"       learned selection: run the ledger's predicted
//	                           winner, race only on doubt (inject the trained
//	                           ledger with ConfigureSelector; without one the
//	                           policy always races and is bit-identical to
//	                           "portfolio")
//	"<Heuristic>"              repartition with that heuristic every event
//	"norepartition[:<H>]"      wave scheduling, frozen between drains
//
// The replanning policies ("portfolio" and plain heuristics) take the
// delta-rescheduling fast path by default; appending ":full" (e.g.
// "portfolio:full") forces full replanning at every event, which is
// bit-equivalent and only useful for benchmarking and equivalence
// testing. workers bounds the portfolio policy's pool (< 1 =
// GOMAXPROCS); seed drives every randomized decision.
func ParsePolicy(spec string, workers int, seed uint64) (Policy, error) {
	return parsePolicyWith(nil, spec, workers, seed)
}

// ParsePolicyShared is ParsePolicy with a caller-supplied portfolio
// engine backing a "portfolio" policy, so many policies (one per fleet
// node) can share a single worker pool instead of each building a
// private one. The policy shares the engine's pool and metrics but not
// its memoization cache (see NewPortfolioPolicy). A nil engine falls
// back to ParsePolicy's behavior; the engine is unused for
// non-portfolio policies.
func ParsePolicyShared(engine *portfolio.Engine, spec string, workers int, seed uint64) (Policy, error) {
	return parsePolicyWith(engine, spec, workers, seed)
}

// parsePolicyWith is ParsePolicy with an optional shared engine for
// the portfolio policy (nil = private engine bounded by workers).
func parsePolicyWith(engine *portfolio.Engine, spec string, workers int, seed uint64) (Policy, error) {
	if base, found := strings.CutSuffix(spec, ":full"); found {
		pol, err := parsePolicyWith(engine, base, workers, seed)
		if err != nil {
			return nil, err
		}
		fr, ok := pol.(interface{ SetFullReplan(bool) })
		if !ok {
			return nil, fmt.Errorf("des: policy %q has no delta-rescheduling fast path to disable", base)
		}
		fr.SetFullReplan(true)
		return pol, nil
	}
	switch {
	case spec == "portfolio":
		return NewPortfolioPolicy(engine, workers, seed), nil
	case spec == "portfolio:selector":
		p := NewPortfolioPolicy(engine, workers, seed)
		p.SetLedger(nil, selector.Thresholds{})
		return p, nil
	case spec == "norepartition":
		return NewNoRepartition(sched.DominantMinRatio, seed)
	case strings.HasPrefix(spec, "norepartition:"):
		h, err := sched.ParseHeuristic(strings.TrimPrefix(spec, "norepartition:"))
		if err != nil {
			return nil, err
		}
		return NewNoRepartition(h, seed)
	default:
		h, err := sched.ParseHeuristic(spec)
		if err != nil {
			return nil, fmt.Errorf("des: unknown policy %q (want \"portfolio\", \"norepartition[:H]\" or a heuristic name): %w", spec, err)
		}
		return NewHeuristicPolicy(h, seed)
	}
}
