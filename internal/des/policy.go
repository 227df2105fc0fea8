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
	plan  sched.Schedule      // the schedule every solve writes, recycled
	rng   solve.RNG           // a randomized heuristic's stream, reseeded per call
}

// NewHeuristicPolicy returns a policy wrapping h. Sequential heuristics
// (AllProcCache) cannot express a concurrent repartition and are
// rejected. The seed drives the randomized heuristics; each invocation
// uses its own substream so replanning decisions stay independent.
func NewHeuristicPolicy(h sched.Heuristic, seed uint64) (*HeuristicPolicy, error) {
	if err := sequential(h, "repartitioning"); err != nil {
		return nil, err
	}
	return &HeuristicPolicy{h: h, seed: seed, memo: sched.NewCopyingPlanMemo(0)}, nil
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
	// Deterministic heuristics never read the RNG; leaving it nil is
	// bit-identical. The call counter still advances so the substream
	// schedule is independent of the heuristic kind.
	var rng *solve.RNG
	if p.h.Randomized() {
		p.rng.Reseed(solve.Substream(p.seed, p.calls))
		rng = &p.rng
	}
	p.apps = residualApps(p.apps, residents)
	// The memo is a one-lane race: a deterministic plan is probed and
	// stored alone, and a randomized one (whose stream the fingerprint
	// does not capture) or a full replan never touches it.
	memoized := !p.full && !p.h.Randomized()
	lane, plan := []sched.Heuristic{p.h}, []*sched.Schedule{nil}
	if memoized && p.memo.LookupAll(lane, pl, p.apps, plan) {
		p.stats.FastPath++
	} else {
		in, err := sched.Prepare(pl, p.apps)
		if err == nil {
			err = p.h.ScheduleInto(context.TODO(), &in, rng, &p.plan)
			in.Release()
		}
		if err != nil {
			return nil, &sched.HeuristicError{Heuristic: p.h, Err: err}
		}
		plan[0] = &p.plan
		if memoized {
			p.memo.StoreAll(lane, pl, p.apps, plan)
		}
		p.stats.FullSolve++
	}
	s := plan[0]
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
// workload at every decision point and applies the winner. A race is
// one loop on the simulating goroutine: the residual set is validated
// once (sched.Prepare), heuristic hi runs on that input with the
// stream portfolio.HeuristicSeed derives for lane hi, and the winner
// is portfolio.BestIndex of the lanes — so every replan is
// bit-identical to a portfolio.Engine race of the same scenario,
// without taking the engine's slots or counting in its metrics.
//
// Delta rescheduling: the policy keeps a sched.PlanMemo of the
// deterministic heuristics' plans, keyed by the exact bit pattern of
// the resident set (platform, residual apps) with one slot per
// heuristic — names excluded, so waves of re-stamped template jobs
// ("cg#17") fingerprint identically. When every deterministic
// heuristic hits the memo (one LookupAll probe), the race replays the
// certified plans and solves only the randomized heuristics (their
// per-call substreams never repeat, so they are never memoizable).
// Any miss solves every lane, and the deterministic plans then seed
// the memo in one StoreAll. Event logs and replan counters are
// bit-identical either way.
type PortfolioPolicy struct {
	hs    []sched.Heuristic
	seed  uint64
	calls uint64
	full  bool
	memo  *sched.PlanMemo
	stats ReplanStats
	apps  []model.Application // residual-work plan buffer, recycled
	rs    []portfolio.Result  // one result per lane, recycled
	plans []*sched.Schedule   // memo probe and store buffer, recycled
	// Per-lane evaluation storage: lane hi solves into bufs[hi] with
	// stream rngs[hi], reseeded per call. Only the winner's assignments
	// leave Allocate, and the memo copies the plans it keeps, so a race
	// allocates no plan of its own.
	bufs []sched.Schedule
	rngs []solve.RNG

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

// NewPortfolioPolicy returns a portfolio-driven policy. It races on
// its caller's goroutine and memoizes recurring resident shapes in its
// own name-insensitive plan memo; it shares nothing with any engine.
func NewPortfolioPolicy(seed uint64) *PortfolioPolicy {
	hs := onlineHeuristics()
	return &PortfolioPolicy{
		hs: hs, seed: seed, memo: sched.NewCopyingPlanMemo(0),
		rs: make([]portfolio.Result, len(hs)), plans: make([]*sched.Schedule, len(hs)),
		bufs: make([]sched.Schedule, len(hs)), rngs: make([]solve.RNG, len(hs)),
	}
}

// SetFullReplan disables (true) or re-enables (false) the delta
// fast path, forcing every Allocate call to solve every lane.
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
	// Lane hi draws from substream hi+1 of the race seed
	// (portfolio.HeuristicSeed), with the same solve.Substream stride
	// this package uses, so a plain substream calls here would cancel
	// whenever calls == hi+1 and hand randomized heuristics
	// systematically colliding streams. Mixing the per-call seed
	// through SplitMix64 (one RNG step) decorrelates the two layers.
	p.apps = residualApps(p.apps, residents)
	scSeed := solve.NewRNG(solve.Substream(p.seed, p.calls)).Uint64()
	in, err := sched.Prepare(pl, p.apps)
	if err != nil {
		return nil, err
	}
	defer in.Release()
	if p.selMode {
		if asg, ok := p.predict(&in, pl, scSeed); ok {
			p.predictions++
			return asg, nil
		}
		p.fallbacks++
	}
	hit := !p.full && p.memo.LookupAll(p.hs, pl, p.apps, p.plans)
	for hi, h := range p.hs {
		if hit && !h.Randomized() {
			p.rs[hi] = portfolio.Result{Heuristic: h, Schedule: p.plans[hi]}
			continue
		}
		s := &p.bufs[hi]
		err := h.ScheduleInto(context.TODO(), &in, p.laneRNG(h, scSeed, hi), s)
		if err != nil {
			s, err = nil, &sched.HeuristicError{Heuristic: h, Err: err}
		}
		p.rs[hi] = portfolio.Result{Heuristic: h, Schedule: s, Err: err}
		p.plans[hi] = s
	}
	if hit {
		p.stats.FastPath++
	} else {
		// Seed the memo with this race's deterministic plans so the
		// next recurrence of the same resident shape takes the fast
		// path. A failed heuristic's Schedule is nil, which StoreAll
		// skips.
		p.stats.FullSolve++
		p.memo.StoreAll(p.hs, pl, p.apps, p.plans)
	}
	best := portfolio.BestIndex(p.rs)
	if best < 0 {
		return nil, fmt.Errorf("des: no heuristic produced a feasible repartition")
	}
	return p.rs[best].Schedule.Assignments, nil
}

// laneRNG reseeds lane hi's stream as that of a race seeded with
// scSeed and returns it, or nil for a deterministic heuristic, which
// never reads it.
func (p *PortfolioPolicy) laneRNG(h sched.Heuristic, scSeed uint64, hi int) *solve.RNG {
	if !h.Randomized() {
		return nil
	}
	p.rngs[hi].Reseed(portfolio.HeuristicSeed(scSeed, hi))
	return &p.rngs[hi]
}

// predict solves only the ledger's confidently predicted winner, on
// the race's prepared input and with the stream the race would hand it
// at its index, so the resulting plan is bit-identical to that
// heuristic's lane of the race. ok is false — deferring to the race —
// when the ledger has no confident call or the predicted heuristic
// fails on this residual workload.
func (p *PortfolioPolicy) predict(in *sched.Prepared, pl model.Platform, scSeed uint64) ([]sched.Assignment, bool) {
	if p.ledger == nil {
		return nil, false
	}
	bucket := selector.Extract(pl, p.apps).Bucket()
	pred, ok := p.ledger.Predict(bucket, p.hs)
	if !ok || !pred.Confident(p.th) {
		return nil, false
	}
	hi := slices.Index(p.hs, pred.Heuristic)
	s := &p.bufs[hi]
	if err := pred.Heuristic.ScheduleInto(context.TODO(), in, p.laneRNG(pred.Heuristic, scSeed, hi), s); err != nil || s.Sequential {
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
	if err := sequential(h, "scheduling"); err != nil {
		return nil, err
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
	if p.selector {
		pp.SetLedger(nil, selector.Thresholds{})
	}
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
	if base, found := strings.CutSuffix(spec, ":full"); found {
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
