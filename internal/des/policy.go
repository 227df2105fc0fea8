package des

import (
	"context"
	"fmt"
	"math"
	"slices"
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
// result reuses buf's backing array when large enough: each race keeps
// one, and nothing downstream retains the slice past the replan.
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

// race is the replan loop of every online policy: at each decision
// point it races its lanes, one heuristic each, over the residual work
// of the resident jobs. The portfolio policy races eleven lanes; a
// one-heuristic policy, and each wave of the no-repartition policy,
// race one. The residual set is validated once (sched.Prepare), lane
// hi solves on it into its own plan buffer with its own stream,
// reseeded per call, and the winner is portfolio.BestIndex of the
// lanes, so a portfolio replan is bit-identical to a portfolio.Engine
// race of the same scenario without going through an engine. Only the
// winner's assignments leave the race.
//
// Delta rescheduling: a race with a deterministic lane keeps those
// lanes' plans in a sched.PlanMemo keyed by the exact bits of the
// resident set (names excluded, so waves of re-stamped template jobs
// fingerprint identically). When every deterministic lane hits (one
// LookupAll probe), the race replays the certified plans and solves
// only its randomized lanes, whose per-call streams never repeat; any
// miss solves every lane and stores the deterministic plans in one
// StoreAll. A race with no deterministic lane, a full replan and a
// wave never touch a memo. Event logs are bit-identical either way.
type race struct {
	hs    []sched.Heuristic
	seed  uint64
	calls uint64
	full  bool
	memo  *sched.PlanMemo // nil: the race never replays a plan
	stats ReplanStats
	apps  []model.Application // residual-work plan buffer, recycled
	rs    []portfolio.Result  // one result per lane, recycled
	plans []*sched.Schedule   // memo probe and store buffer, recycled
	bufs  []sched.Schedule    // lane hi's plan storage, recycled
	rngs  []solve.RNG         // lane hi's stream, reseeded per call
	// one backs the lanes of a one-lane race, which thus allocates no
	// lane storage of its own.
	one struct {
		hs    [1]sched.Heuristic
		rs    [1]portfolio.Result
		plans [1]*sched.Schedule
		bufs  [1]sched.Schedule
		rngs  [1]solve.RNG
	}
}

// init makes r the race of hs, seeded with seed, with a plan memo if
// memoize is set and some lane is deterministic.
func (r *race) init(hs []sched.Heuristic, seed uint64, memoize bool) {
	r.hs, r.seed = hs, seed
	if n := len(hs); n == 1 {
		r.rs, r.plans, r.bufs, r.rngs = r.one.rs[:], r.one.plans[:], r.one.bufs[:], r.one.rngs[:]
	} else {
		r.rs, r.plans = make([]portfolio.Result, n), make([]*sched.Schedule, n)
		r.bufs, r.rngs = make([]sched.Schedule, n), make([]solve.RNG, n)
	}
	if memoize && slices.ContainsFunc(hs, func(h sched.Heuristic) bool { return !h.Randomized() }) {
		r.memo = sched.NewPlanMemo(0)
	}
}

// initOne makes r the one-lane race of h.
func (r *race) initOne(h sched.Heuristic, seed uint64, memoize bool) {
	r.one.hs[0] = h
	r.init(r.one.hs[:], seed, memoize)
}

// SetFullReplan disables (true) or re-enables (false) the delta fast
// path, forcing every Allocate call to solve every lane; the ":full"
// policy-spec suffix sets it. Event logs are bit-identical either way.
func (r *race) SetFullReplan(full bool) { r.full = full }

// ReplanStats reports the delta-rescheduling telemetry; the engine
// copies it into Result.Replan.
func (r *race) ReplanStats() ReplanStats {
	st := r.stats
	if r.memo != nil {
		ms := r.memo.Stats()
		st.MemoHits, st.MemoMisses, st.MemoEvictions = ms.Hits, ms.Misses, ms.Evictions
	}
	return st
}

// replan races one call over the residual work of residents. With in
// nil the call starts here: replan counts it, builds its residual set
// and prepares that only if some lane must solve. Otherwise the caller
// (the selector's fallback) has done all three, and in is the call's
// prepared input.
func (r *race) replan(pl model.Platform, residents []Resident, in *sched.Prepared) ([]sched.Assignment, error) {
	if in == nil {
		r.calls++
		r.apps = residualApps(r.apps, residents)
	}
	replay := r.memo != nil && !r.full
	hit := replay && r.memo.LookupAll(r.hs, pl, r.apps, r.plans)
	var own sched.Prepared
	for hi, h := range r.hs {
		if hit && !h.Randomized() {
			r.rs[hi] = portfolio.Result{Heuristic: h, Schedule: r.plans[hi]}
			continue
		}
		if in == nil {
			var err error
			if own, err = sched.Prepare(pl, r.apps); err != nil {
				return nil, err
			}
			in = &own
		}
		s := &r.bufs[hi]
		err := h.ScheduleInto(context.TODO(), in, r.laneRNG(hi), s)
		if err != nil {
			s, err = nil, &sched.HeuristicError{Heuristic: h, Err: err}
		}
		r.rs[hi] = portfolio.Result{Heuristic: h, Schedule: s, Err: err}
		r.plans[hi] = s
	}
	own.Release()
	if hit {
		r.stats.FastPath++
	} else {
		// StoreAll skips a failed lane, whose Schedule is nil.
		r.stats.FullSolve++
		if replay {
			r.memo.StoreAll(r.hs, pl, r.apps, r.plans)
		}
	}
	switch best := portfolio.BestIndex(r.rs); {
	case best >= 0:
		return r.rs[best].Schedule.Assignments, nil
	case len(r.rs) == 1 && r.rs[0].Err != nil:
		return nil, r.rs[0].Err // a one-heuristic race fails with its heuristic's error
	}
	return nil, fmt.Errorf("des: no heuristic produced a feasible repartition")
}

// laneRNG reseeds lane hi's stream for this call and returns it, or nil
// for a deterministic heuristic, which never reads it. A one-lane race
// draws the call's substream. A wider race draws lane hi's stream of a
// race seeded with that substream mixed through SplitMix64 (one RNG
// step): portfolio.HeuristicSeed takes substream hi+1 of its seed with
// the same stride, so unmixed, calls == hi+1 would hand randomized
// lanes systematically colliding streams.
func (r *race) laneRNG(hi int) *solve.RNG {
	if !r.hs[hi].Randomized() {
		return nil
	}
	seed := solve.Substream(r.seed, r.calls)
	if len(r.hs) > 1 {
		seed = portfolio.HeuristicSeed(solve.NewRNG(seed).Uint64(), hi)
	}
	r.rngs[hi].Reseed(seed)
	return &r.rngs[hi]
}

// HeuristicPolicy repartitions with one of the paper's heuristics at
// every decision point, rescheduling the residual work of every
// resident job: a one-lane race. A deterministic heuristic replays a
// recurring resident shape's memoized plan; a randomized one always
// re-solves, since no cached plan can certify its per-call stream.
type HeuristicPolicy struct{ race }

// NewHeuristicPolicy returns a policy wrapping h. Sequential heuristics
// (AllProcCache) cannot express a concurrent repartition and are
// rejected. The seed drives the randomized heuristics; each invocation
// uses its own substream so replanning decisions stay independent.
func NewHeuristicPolicy(h sched.Heuristic, seed uint64) (*HeuristicPolicy, error) {
	if err := sequential(h, "repartitioning"); err != nil {
		return nil, err
	}
	p := new(HeuristicPolicy)
	p.initOne(h, seed, true)
	return p, nil
}

// Allocate implements Policy.
func (p *HeuristicPolicy) Allocate(pl model.Platform, residents []Resident) ([]sched.Assignment, error) {
	return p.replan(pl, residents, nil)
}

// Name implements Policy.
func (p *HeuristicPolicy) Name() string { return "heuristic:" + p.hs[0].String() }

// onlineHeuristics is the portfolio raced by PortfolioPolicy: every
// extended heuristic except the sequential AllProcCache baseline. Races
// only read it, so every portfolio policy shares it.
var onlineHeuristics = slices.DeleteFunc(slices.Clone(sched.ExtendedHeuristics),
	func(h sched.Heuristic) bool { return h == sched.AllProcCache })

// PortfolioPolicy races the whole heuristic portfolio over the residual
// workload at every decision point and applies the winner: a race of
// every concurrent heuristic, one lane each.
type PortfolioPolicy struct {
	race

	// Learned selection ("portfolio:selector"): when a ledger is set,
	// Allocate first asks it for a prediction that clears
	// selector.DefaultThresholds and, when it gets one, solves only
	// that heuristic — on the exact substream the race would have given
	// it — instead of racing the portfolio. A nil or empty ledger
	// predicts nothing, so the policy is then bit-identical to plain
	// "portfolio".
	selMode     bool
	ledger      *selector.Ledger
	predictions uint64
	fallbacks   uint64
}

// NewPortfolioPolicy returns a portfolio-driven policy. It races on
// its caller's goroutine and memoizes recurring resident shapes in its
// own name-insensitive plan memo; it shares nothing with any engine.
func NewPortfolioPolicy(seed uint64) *PortfolioPolicy {
	p := new(PortfolioPolicy)
	p.init(onlineHeuristics, seed, true)
	return p
}

// SelectorStats reports how many Allocate calls were served by the
// predicted winner versus by a race (zero unless in selector mode).
func (p *PortfolioPolicy) SelectorStats() (predictions, fallbacks uint64) {
	return p.predictions, p.fallbacks
}

// ConfigureSelector injects a trained ledger into pol when it is a
// selector-mode portfolio policy, reporting whether it did. The
// simulators call this after ParsePolicy: the spec string selects the
// mode ("portfolio:selector"), the caller supplies the ledger — the
// ledger is runtime state, never part of the wire spec.
func ConfigureSelector(pol Policy, l *selector.Ledger) bool {
	pp, ok := pol.(*PortfolioPolicy)
	if !ok || !pp.selMode {
		return false
	}
	pp.ledger = l
	return true
}

// Allocate implements Policy.
func (p *PortfolioPolicy) Allocate(pl model.Platform, residents []Resident) ([]sched.Assignment, error) {
	if !p.selMode {
		return p.replan(pl, residents, nil)
	}
	p.calls++
	p.apps = residualApps(p.apps, residents)
	in, err := sched.Prepare(pl, p.apps)
	if err != nil {
		return nil, err
	}
	defer in.Release()
	if asg, ok := p.predict(&in, pl); ok {
		p.predictions++
		return asg, nil
	}
	p.fallbacks++
	return p.replan(pl, residents, &in)
}

// predict solves only the ledger's confidently predicted winner, on
// the race's prepared input and with the stream the race would hand it
// at its index, so the resulting plan is bit-identical to that
// heuristic's lane of the race. ok is false — deferring to the race —
// when the ledger has no confident call or the predicted heuristic
// fails on this residual workload.
func (p *PortfolioPolicy) predict(in *sched.Prepared, pl model.Platform) ([]sched.Assignment, bool) {
	if p.ledger == nil {
		return nil, false
	}
	bucket := selector.Extract(pl, p.apps).Bucket()
	pred, ok := p.ledger.Predict(bucket, p.hs)
	if !ok || !pred.Confident(selector.DefaultThresholds()) {
		return nil, false
	}
	hi := slices.Index(p.hs, pred.Heuristic)
	s := &p.bufs[hi]
	if err := pred.Heuristic.ScheduleInto(context.TODO(), in, p.laneRNG(hi), s); err != nil {
		return nil, false
	}
	return s.Assignments, true
}

// Name implements Policy.
func (p *PortfolioPolicy) Name() string {
	if p.selMode {
		return "portfolio:selector"
	}
	return "portfolio"
}

// NoRepartition schedules jobs in waves: when the node is idle it
// allocates the whole resident set with the wrapped heuristic, in a
// one-lane race without a memo, and then freezes — jobs arriving
// mid-wave wait (zero allocation) until the wave drains. With every job
// present at t = 0 this reproduces the paper's static setting exactly;
// it is also the natural baseline that quantifies what dynamic
// repartitioning buys.
type NoRepartition struct {
	wave race               // a named field: the policy reports no replan telemetry
	frzn []sched.Assignment // frozen-wave assignment buffer, recycled
}

// NewNoRepartition returns the wave-scheduling policy around h.
func NewNoRepartition(h sched.Heuristic, seed uint64) (*NoRepartition, error) {
	if err := sequential(h, "scheduling"); err != nil {
		return nil, err
	}
	p := new(NoRepartition)
	p.wave.initOne(h, seed, false)
	return p, nil
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
			p.frzn = slices.Grow(p.frzn[:0], len(residents))
			for _, rr := range residents {
				p.frzn = append(p.frzn, rr.Assign)
			}
			return p.frzn, nil
		}
	}
	// Node drained (or first wave): schedule everything resident.
	return p.wave.replan(pl, residents, nil)
}

// Name implements Policy.
func (p *NoRepartition) Name() string { return "norepartition:" + p.wave.hs[0].String() }

// ParsePolicy resolves a policy specification string:
//
//	"portfolio"                race all concurrent heuristics, keep the winner
//	"portfolio:selector"       learned selection: run the ledger's predicted
//	                           winner, race only on doubt (inject the trained
//	                           ledger with ConfigureSelector; without one the
//	                           policy always races and is bit-identical to
//	                           "portfolio")
//	"<Heuristic>"              repartition with that heuristic every event
//	""                         the default: "DominantMinRatio"
//	"norepartition[:<H>]"      wave scheduling, frozen between drains
//
// The replanning policies ("portfolio" and plain heuristics) take the
// delta-rescheduling fast path by default; appending ":full" (e.g.
// "portfolio:full") forces full replanning at every event, which is
// bit-equivalent and only useful for benchmarking and equivalence
// testing. seed drives every randomized decision.
func ParsePolicy(spec string, seed uint64) (Policy, error) {
	p, err := parsePolicy(spec)
	switch {
	case err != nil:
		return nil, err
	case p.waves:
		return NewNoRepartition(p.h, seed)
	case !p.portfolio:
		hp, _ := NewHeuristicPolicy(p.h, seed) // parsePolicy rejected what it rejects
		hp.SetFullReplan(p.full)
		return hp, nil
	}
	pp := NewPortfolioPolicy(seed)
	pp.selMode = p.selector
	pp.SetFullReplan(p.full)
	return pp, nil
}

// ValidatePolicy returns the error ParsePolicy would, without building
// the policy.
func ValidatePolicy(spec string) error {
	_, err := parsePolicy(spec)
	return err
}

// parsedPolicy is a policy specification resolved but not built.
type parsedPolicy struct {
	h                                sched.Heuristic
	portfolio, selector, waves, full bool
}

// parsePolicy is ParsePolicy's grammar.
func parsePolicy(spec string) (parsedPolicy, error) {
	if base, found := strings.CutSuffix(spec, ":full"); found && base != "" {
		p, err := parsePolicy(base)
		if err == nil && p.waves {
			err = fmt.Errorf("des: policy %q has no delta-rescheduling fast path to disable", base)
		}
		p.full = true
		return p, err
	}
	var p parsedPolicy
	var err error
	switch {
	case spec == "":
		p.h = sched.DominantMinRatio
	case spec == "portfolio", spec == "portfolio:selector":
		p.portfolio, p.selector = true, spec == "portfolio:selector"
	case spec == "norepartition":
		p.h, p.waves = sched.DominantMinRatio, true
	case strings.HasPrefix(spec, "norepartition:"):
		p.waves = true
		if p.h, err = sched.ParseHeuristic(strings.TrimPrefix(spec, "norepartition:")); err == nil {
			err = sequential(p.h, "scheduling")
		}
	default:
		if p.h, err = sched.ParseHeuristic(spec); err != nil {
			err = fmt.Errorf("des: unknown policy %q (want \"portfolio\", \"norepartition[:H]\" or a heuristic name): %w", spec, err)
		} else {
			err = sequential(p.h, "repartitioning")
		}
	}
	return p, err
}

// sequential rejects AllProcCache, which runs the applications one
// after another, as the heuristic of an online policy.
func sequential(h sched.Heuristic, drives string) error {
	if h == sched.AllProcCache {
		return fmt.Errorf("des: %v is sequential and cannot drive online %s", h, drives)
	}
	return nil
}

// ParsePolicyShared is ParsePolicy; engine and workers are ignored,
// since no policy holds a portfolio engine.
func ParsePolicyShared(engine *portfolio.Engine, spec string, workers int, seed uint64) (Policy, error) {
	return ParsePolicy(spec, seed)
}
