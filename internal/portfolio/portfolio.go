// Package portfolio evaluates many scheduling heuristics on many
// scenarios and picks the best schedule each scenario admits. It is the
// paper's comparison methodology turned into an engine: where the study
// ranks the ten policies of Sections 5–6 across sweeps, the portfolio
// scheduler races the whole policy set for every incoming (Platform,
// Applications) scenario under a bounded worker pool and serves the
// winner, with a full per-heuristic report for audit.
//
// Three properties make it the substrate for scale work:
//
//   - Determinism. Every heuristic's randomness is derived from the
//     scenario seed and the heuristic's position, never from execution
//     order, so concurrent and serial runs agree bit-for-bit.
//   - Bounded concurrency. One Engine owns one semaphore, and every
//     heuristic evaluation of every call holds one of its slots, so
//     callers can fan out freely without oversubscribing the machine.
//     A race is serial; a batch, slice or stream, spreads whole
//     scenarios over up to Workers goroutines (see EvaluateStream).
//   - Memoization. Solved (scenario, heuristic) pairs are remembered in
//     a sharded, mutex-striped cache keyed by a canonical scenario
//     hash; repeated scenarios cost one map lookup, and concurrent
//     identical requests collapse into a single computation. The cache
//     is bounded: each shard keeps a fixed number of completed entries
//     and evicts with CLOCK (second chance), never an entry still in
//     flight.
//
// The online DES portfolio policy races the same lanes outside any
// engine, with the seeds of HeuristicSeed and the winner of BestIndex,
// so its replans take no slot, no cache entry and no metric of an
// engine: the engine's bound and metrics cover request races only.
package portfolio

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/solve"
)

// Config parameterizes an Engine.
type Config struct {
	// Workers bounds the heuristic evaluations in flight at once across
	// every call on the engine, and the goroutines one batch races its
	// scenarios on (none at 1). Values < 1 default to GOMAXPROCS.
	// Results are identical at any worker count (see the determinism
	// property).
	Workers int
	// Cache memoizes solved (scenario, heuristic) pairs. Nil disables
	// memoization. A Cache may be shared between engines.
	Cache *Cache
	// Metrics instruments the engine (see NewMetrics). Nil disables all
	// observation: the engine then pays one nil check per site and its
	// hot path stays allocation-free.
	Metrics *Metrics
}

// Engine is a concurrent portfolio scheduler. It is safe for use from
// multiple goroutines; all evaluations share one semaphore.
type Engine struct {
	sem     chan struct{}
	cache   *Cache
	metrics *Metrics
}

// New returns an Engine with the given configuration.
func New(cfg Config) *Engine {
	w := cfg.Workers
	if w < 1 {
		w = runtime.GOMAXPROCS(0)
	}
	cfg.Metrics.bindCache(cfg.Cache)
	return &Engine{sem: make(chan struct{}, w), cache: cfg.Cache, metrics: cfg.Metrics}
}

// Workers reports how many heuristic evaluations may run at once.
func (e *Engine) Workers() int { return cap(e.sem) }

// CacheStats reports the memoization cache's counters; zero if the
// engine has no cache.
func (e *Engine) CacheStats() CacheStats {
	if e.cache == nil {
		return CacheStats{}
	}
	return e.cache.Stats()
}

// Scenario is one scheduling problem: a platform, a workload, the set
// of heuristics to race, and the seed driving the randomized ones.
type Scenario struct {
	Platform model.Platform
	Apps     []model.Application
	// Heuristics to evaluate, in report order. Nil or empty means the
	// full extended set (the paper's ten plus SharedCache/LocalSearch).
	Heuristics []sched.Heuristic
	// Seed of the scenario's master random stream. Heuristic i draws
	// from substream i+1 of Seed (see HeuristicSeed), so results do not
	// depend on which worker ran which heuristic when.
	Seed uint64
}

func (s *Scenario) heuristics() []sched.Heuristic {
	if len(s.Heuristics) == 0 {
		return sched.ExtendedHeuristics
	}
	return s.Heuristics
}

// Result is one heuristic's outcome on one scenario.
type Result struct {
	Heuristic sched.Heuristic
	// Schedule is nil when Err is non-nil. Schedules may be served from
	// the memoization cache and shared between callers: treat them as
	// immutable.
	Schedule *sched.Schedule
	Err      error
	// FromCache reports whether the schedule was served from the
	// memoization cache rather than computed by this call.
	FromCache bool
}

// Report is the full outcome of one scenario: one Result per heuristic,
// in heuristic order, plus the index of the winner.
type Report struct {
	Results []Result
	// Best indexes the feasible Result with the smallest makespan
	// (ties broken toward the earlier heuristic), or -1 if every
	// heuristic failed.
	Best int
	// Err is set when the scenario itself was invalid (bad platform or
	// application); Results is then empty.
	Err error
}

// BestResult returns the winning result, or nil if none was feasible.
func (r *Report) BestResult() *Result {
	if r.Best < 0 || r.Best >= len(r.Results) {
		return nil
	}
	return &r.Results[r.Best]
}

// BestSchedule returns the winning schedule, or nil if none was
// feasible. The schedule may be cache-shared: treat it as immutable.
func (r *Report) BestSchedule() *sched.Schedule {
	if br := r.BestResult(); br != nil {
		return br.Schedule
	}
	return nil
}

// Evaluate runs every heuristic of the scenario and reports all
// outcomes. The returned error is non-nil only for invalid scenarios;
// per-heuristic failures land in the Report.
func (e *Engine) Evaluate(s Scenario) (*Report, error) {
	return e.EvaluateContext(context.Background(), s)
}

// EvaluateContext is Evaluate under a context: cancellation abandons
// the remaining heuristics and surfaces ctx.Err() both as the call
// error and on every unevaluated Result. The race runs on the calling
// goroutine; see EvaluateBatchContext for the cancellation contract.
func (e *Engine) EvaluateContext(ctx context.Context, s Scenario) (*Report, error) {
	start := e.metrics.startCall(1)
	rep := e.race(ctx, &s, 0)
	e.metrics.endCall(start)
	if err := ctx.Err(); err != nil {
		return rep, err
	}
	return rep, rep.Err
}

// EvaluateBatch evaluates many scenarios at once, spreading whole
// scenarios over the engine's workers. The returned slice aligns with
// scenarios. Scenario-level validation failures are recorded in the
// corresponding Report's Err.
func (e *Engine) EvaluateBatch(scenarios []Scenario) []*Report {
	reports, _ := e.EvaluateBatchContext(context.Background(), scenarios)
	return reports
}

// EvaluateBatchContext is EvaluateBatch under a context: it collects
// the reports the batch dispatcher (see EvaluateStream) emits.
//
// Cancellation contract: a cancelled batch stops within one in-flight
// evaluation per racing goroutine and returns ctx.Err() alongside the
// reports. Every evaluation that never ran, in the scenarios left
// unpulled too, carries ctx.Err() as its Result.Err (pickBest skips
// errors), and a later call on a live context is bit-identical to one
// on a fresh engine.
func (e *Engine) EvaluateBatchContext(ctx context.Context, scenarios []Scenario) ([]*Report, error) {
	reports := make([]*Report, len(scenarios))
	err := e.dispatch(ctx, source{batch: scenarios}, func(i int, rep *Report) error {
		reports[i] = rep
		return nil
	})
	for si, rep := range reports {
		if rep == nil {
			reports[si] = e.race(ctx, &scenarios[si], si)
		}
	}
	return reports, err
}

// EvaluateStream races the scenarios of seq on up to Workers goroutines
// and calls emit with each one's position and report, in input order,
// on the calling goroutine. seq runs on another goroutine (iter.Pull),
// so it may block while earlier reports are emitted, and it has
// returned when EvaluateStream does. At most 2×Workers scenarios are
// pulled but not yet emitted. An emit error cancels the races in flight
// and is returned; a cancelled ctx stops the pulling, and what was
// pulled is still emitted before ctx.Err() is returned.
func (e *Engine) EvaluateStream(ctx context.Context, seq iter.Seq[Scenario], emit func(i int, rep *Report) error) error {
	next, stop := iter.Pull(seq)
	defer stop()
	return e.dispatch(ctx, source{next: next}, emit)
}

// source is the dispatcher's input: a batch, or a stream's next.
type source struct {
	batch []Scenario
	next  func() (Scenario, bool)
}

// pull returns scenario i, the one after the last pulled, if any.
func (s source) pull(i int) (Scenario, bool) {
	if s.next != nil {
		return s.next()
	}
	if i < len(s.batch) {
		return s.batch[i], true
	}
	return Scenario{}, false
}

// dispatch is the engine's one batch dispatcher. With one worker the
// caller races each scenario it pulls and emits it, starting no
// goroutine. The call counts as one batch, and each scenario it pulls
// as one raced.
func (e *Engine) dispatch(ctx context.Context, src source, emit func(int, *Report) error) error {
	start := e.metrics.startCall(0)
	defer e.metrics.endCall(start)
	if cap(e.sem) > 1 {
		return e.claim(ctx, src, emit)
	}
	for i := 0; ctx.Err() == nil; i++ {
		sc, ok := src.pull(i)
		if !ok {
			break
		}
		e.metrics.pulled()
		if err := emit(i, e.race(ctx, &sc, i)); err != nil {
			return err
		}
	}
	return ctx.Err()
}

// claim is dispatch on Workers goroutines, each taking a window token,
// pulling under a mutex and racing; the caller emits in order and
// returns a token per report. It is its own function because what a go
// statement captures is heap-allocated on every call that reaches it.
func (e *Engine) claim(parent context.Context, src source, emit func(int, *Report) error) error {
	ctx, cancel := context.WithCancel(parent)
	defer cancel()
	type raced struct {
		i   int
		rep *Report
	}
	window := 2 * cap(e.sem)
	room := make(chan struct{}, window)
	results := make(chan raced, window) // never full: it holds at most the window
	var pulls struct {
		// Held across src.pull: a stream's next runs one call at a time,
		// and positions follow input order. Nothing else takes it.
		sync.Mutex
		n, live int // scenarios pulled; claimers not yet returned
	}
	pulls.live = cap(e.sem)
	claimer := func() {
		for {
			room <- struct{}{}
			pulls.Lock()
			i, sc, ok := pulls.n, Scenario{}, false
			if ctx.Err() == nil {
				sc, ok = src.pull(i)
			}
			if ok {
				pulls.n++
			} else if pulls.live--; pulls.live == 0 {
				close(results) // the other claimers have sent their last report
			}
			pulls.Unlock()
			if !ok {
				return
			}
			e.metrics.pulled()
			results <- raced{i, e.race(ctx, &sc, i)}
			// The send readies the caller, but with every processor busy
			// racing it would run only once a claimer blocks, by then on
			// a full window: yield so it emits now.
			runtime.Gosched()
		}
	}
	for range cap(e.sem) {
		go claimer()
	}
	var err error
	pending, next := make([]*Report, window), 0 // raced reports by position mod window
	for r := range results {
		for pending[r.i%window] = r.rep; pending[next%window] != nil; next++ {
			if err == nil {
				if err = emit(next, pending[next%window]); err != nil {
					cancel()
				}
			}
			pending[next%window] = nil
			<-room
		}
	}
	if err != nil {
		return err
	}
	return parent.Err()
}

// race evaluates the scenario's heuristics in order on the calling
// goroutine, each holding one engine-semaphore slot, and picks the
// winner. An evaluation cancellation skipped carries ctx.Err(), so "not
// computed" differs from "computed infeasible". si numbers the scenario
// in a validation error.
//
// The scenario is validated once, by sched.Prepare, and every computed
// evaluation runs on that one prepared input: the first takes its
// pooled scratch and constants table, the rest reuse them, and a race
// the cache answers entirely never takes a scratch.
func (e *Engine) race(ctx context.Context, sc *Scenario, si int) *Report {
	rep := &Report{Best: -1}
	in, err := sched.Prepare(sc.Platform, sc.Apps)
	if err != nil {
		rep.Err = fmt.Errorf("portfolio: scenario %d: %w", si, err)
		return rep
	}
	defer in.Release()
	hs := sc.heuristics()
	rep.Results = make([]Result, len(hs))
	m := e.metrics
	if m != nil {
		m.evals.Add(uint64(len(hs)))
		// Depth rises by the whole race and falls once per resolved
		// evaluation, computed or skipped, so it always returns to its
		// pre-race level.
		m.queueDepth.Add(int64(len(hs)))
	}
	done := ctx.Done()
	for hi, h := range hs {
		res := &rep.Results[hi]
		*res = Result{Heuristic: h, Err: ctx.Err()}
		if res.Err == nil {
			select {
			case e.sem <- struct{}{}:
				// The clock is read only with metrics on.
				var start time.Time
				if m != nil {
					start = time.Now()
				}
				*res = e.solveOne(ctx, sc, &in, h, hi)
				if m != nil {
					m.evalSeconds.Observe(time.Since(start).Seconds())
				}
				<-e.sem
			case <-done:
				res.Err = ctx.Err()
			}
		}
		if m != nil {
			m.queueDepth.Dec()
		}
	}
	rep.pickBest()
	if br := rep.BestResult(); m != nil && br != nil {
		m.wins.With(br.Heuristic.String()).Inc()
	}
	return rep
}

// solveOne schedules one heuristic on the race's prepared input,
// through the cache when present.
// Only randomized heuristics get an RNG: the deterministic ones never
// read it, and skipping the construction keeps the hot path lean
// without changing any schedule. Failures are wrapped in
// *sched.HeuristicError naming the policy; context errors pass through
// bare so errors.Is(err, context.Canceled) holds on every layer.
func (e *Engine) solveOne(ctx context.Context, sc *Scenario, in *sched.Prepared, h sched.Heuristic, hi int) Result {
	seed := HeuristicSeed(sc.Seed, hi)
	if e.cache == nil {
		s, err := h.SchedulePrepared(ctx, in, rngFor(h, seed))
		return Result{Heuristic: h, Schedule: s, Err: heuristicErr(h, err)}
	}
	s, err, fromCache := e.cache.getOrCompute(ctx, sc.Platform, sc.Apps, h, seed, func() (*sched.Schedule, error) {
		// The RNG is built inside the computation so memoized hits do
		// not pay for a stream they never draw from.
		return h.SchedulePrepared(ctx, in, rngFor(h, seed))
	})
	return Result{Heuristic: h, Schedule: s, Err: heuristicErr(h, err), FromCache: fromCache}
}

// heuristicErr wraps a per-heuristic failure in *sched.HeuristicError.
// Cancellation is not a property of the heuristic, so context errors
// stay bare — they mark "not computed", not "policy failed".
func heuristicErr(h sched.Heuristic, err error) error {
	if err == nil || isContextErr(err) {
		return err
	}
	return &sched.HeuristicError{Heuristic: h, Err: err}
}

// isContextErr reports whether err is a cancellation or deadline error.
func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// HeuristicSeed derives the RNG seed for the heuristic at index hi of a
// scenario seeded with scenarioSeed: its substream hi+1
// (solve.Substream), the derivation the experiment sweeps have always
// used, so portfolio-run figures are bit-identical to the historical
// serial loops. It is exported as the single source of truth for that
// derivation — callers that race heuristics outside the engine (the
// DES portfolio policy) must reproduce the exact streams Evaluate would
// have drawn, or their results drift from the full race bit-for-bit
// determinism forbids.
func HeuristicSeed(scenarioSeed uint64, hi int) uint64 {
	return solve.Substream(scenarioSeed, uint64(hi+1))
}

// rngFor returns the heuristic's seeded stream, or nil for
// deterministic heuristics, which never read it: skipping the
// construction keeps the hot path lean without changing any schedule.
func rngFor(h sched.Heuristic, seed uint64) *solve.RNG {
	if !h.Randomized() {
		return nil
	}
	return solve.NewRNG(seed)
}

// BestIndex selects the feasible result with the smallest makespan,
// breaking ties toward the earlier index, or -1 if none is feasible.
// Results with a NaN makespan are treated as infeasible so they can
// never shadow a finite schedule. Exported so callers that assemble
// result slices outside Evaluate (the DES portfolio policy) share the
// engine's exact selection semantics, ties included.
func BestIndex(results []Result) int {
	best := -1
	for i := range results {
		res := &results[i]
		if res.Err != nil || res.Schedule == nil || math.IsNaN(res.Schedule.Makespan) {
			continue
		}
		if best < 0 || res.Schedule.Makespan < results[best].Schedule.Makespan {
			best = i
		}
	}
	return best
}

// pickBest records BestIndex over the report's results.
func (r *Report) pickBest() {
	r.Best = BestIndex(r.Results)
}
