// Package portfolio evaluates many scheduling heuristics — and many
// scenarios — concurrently, and picks the best schedule each scenario
// admits. It is the paper's comparison methodology turned into an
// engine: where the study ranks the ten policies of Sections 5–6 across
// sweeps, the portfolio scheduler runs the whole policy set for every
// incoming (Platform, Applications) scenario on a bounded worker pool
// and serves the winner, with a full per-heuristic report for audit.
//
// Three properties make it the substrate for scale work:
//
//   - Determinism. Every heuristic's randomness is derived from the
//     scenario seed and the heuristic's position, never from execution
//     order, so concurrent and serial runs agree bit-for-bit.
//   - Bounded concurrency. One Engine owns one semaphore; heuristic ×
//     scenario tasks from any number of Evaluate/EvaluateBatch calls
//     share it, so callers can fan out freely without oversubscribing
//     the machine.
//   - Memoization. Solved (scenario, heuristic) pairs are remembered in
//     a sharded, mutex-striped cache keyed by a canonical scenario
//     hash; repeated scenarios cost one map lookup, and concurrent
//     identical requests collapse into a single computation.
package portfolio

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/solve"
)

// seedStride separates per-heuristic RNG substreams. It matches the
// derivation the experiment sweeps have always used, so portfolio-run
// figures are bit-identical to the historical serial loops.
const seedStride = 0x9E3779B97F4A7C15

// Config parameterizes an Engine.
type Config struct {
	// Workers bounds the number of heuristic evaluations in flight at
	// once. Values < 1 default to GOMAXPROCS. One worker reproduces the
	// serial evaluation order's results exactly (as does any other
	// worker count — see the determinism property).
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
// multiple goroutines; all evaluations share one worker pool.
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

// Workers reports the size of the engine's worker pool.
func (e *Engine) Workers() int { return cap(e.sem) }

// CacheStats reports the memoization cache's counters; zero if the
// engine has no cache.
func (e *Engine) CacheStats() CacheStats {
	if e.cache == nil {
		return CacheStats{}
	}
	return e.cache.Stats()
}

// Uncached returns a view of e that shares its worker semaphore and
// metrics but memoizes nothing, or e itself when it has no cache.
// Callers whose scenarios never recur (the online DES policies) race on
// it so they do not fill a shared cache with dead entries.
func (e *Engine) Uncached() *Engine {
	if e.cache == nil {
		return e
	}
	return &Engine{sem: e.sem, metrics: e.metrics}
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
	// from the substream Seed ^ (i+1)·seedStride, so results do not
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

// Evaluate runs every heuristic of the scenario on the worker pool and
// reports all outcomes. The returned error is non-nil only for invalid
// scenarios; per-heuristic failures land in the Report.
func (e *Engine) Evaluate(s Scenario) (*Report, error) {
	return e.EvaluateContext(context.Background(), s)
}

// EvaluateContext is Evaluate under a context: cancellation abandons
// the remaining heuristics and surfaces ctx.Err() both as the call
// error and on every unevaluated Result. See EvaluateBatchContext for
// the cancellation contract.
func (e *Engine) EvaluateContext(ctx context.Context, s Scenario) (*Report, error) {
	reports, err := e.EvaluateBatchContext(ctx, []Scenario{s})
	rep := reports[0]
	if err == nil {
		err = rep.Err
	}
	return rep, err
}

// task is one (scenario, heuristic) evaluation cell.
type task struct {
	sc  *Scenario
	rep *Report
	hi  int
	h   sched.Heuristic
}

// taskSlab recycles the task list of EvaluateBatch calls. Entries are
// zeroed before the slab returns to the pool so it never pins scenario
// or report memory.
type taskSlab struct{ tasks []task }

var taskSlabPool = sync.Pool{New: func() any { return new(taskSlab) }}

// EvaluateBatch evaluates many scenarios at once, fanning every
// (scenario, heuristic) pair out to the shared worker pool. The
// returned slice aligns with scenarios. Scenario-level validation
// failures are recorded in the corresponding Report's Err.
func (e *Engine) EvaluateBatch(scenarios []Scenario) []*Report {
	reports, _ := e.EvaluateBatchContext(context.Background(), scenarios)
	return reports
}

// EvaluateBatchContext is EvaluateBatch under a context.
//
// The call spawns at most Workers goroutines regardless of batch size
// (a full paper sweep is tens of thousands of tasks), and each task
// additionally holds a slot of the engine-wide semaphore, so concurrent
// EvaluateBatch calls on one engine still respect the global bound.
// Tasks are drained through an atomic cursor over a pooled slab —
// results land at fixed (scenario, heuristic) indices, so scheduling
// order never influences the output.
//
// Cancellation contract: workers poll ctx before claiming each task, so
// a cancelled batch stops within one in-flight heuristic evaluation per
// worker. The call then returns ctx.Err() alongside the reports; every
// task that never ran carries ctx.Err() as its Result.Err (cancelled
// results never shadow computed ones — pickBest skips errors). Pooled
// scratch is returned in a reusable state, and a subsequent call on a
// live context is bit-identical to one on a fresh engine.
func (e *Engine) EvaluateBatchContext(ctx context.Context, scenarios []Scenario) ([]*Report, error) {
	m := e.metrics
	var raceStart time.Time
	if m != nil {
		raceStart = time.Now()
	}
	reports := make([]*Report, len(scenarios))
	slab := taskSlabPool.Get().(*taskSlab)
	tasks := slab.tasks[:0]
	for si := range scenarios {
		sc := &scenarios[si]
		rep := &Report{Best: -1}
		reports[si] = rep
		if err := model.ValidateAll(sc.Platform, sc.Apps); err != nil {
			rep.Err = fmt.Errorf("portfolio: scenario %d: %w", si, err)
			continue
		}
		hs := sc.heuristics()
		rep.Results = make([]Result, len(hs))
		for hi := range hs {
			tasks = append(tasks, task{sc, rep, hi, hs[hi]})
		}
	}

	if m != nil {
		m.batches.Inc()
		m.scenarios.Add(uint64(len(scenarios)))
		m.evals.Add(uint64(len(tasks)))
		// Depth rises by the whole admission and falls once per resolved
		// task (computed or cancellation-filled), so it always returns to
		// its pre-call level.
		m.queueDepth.Add(int64(len(tasks)))
	}

	workers := cap(e.sem)
	if workers > len(tasks) {
		workers = len(tasks)
	}
	done := ctx.Done()
	if workers <= 1 {
		// Serial fast path: no goroutines, no synchronization beyond the
		// engine-wide semaphore.
		for i := range tasks {
			if ctx.Err() != nil {
				break
			}
			t := &tasks[i]
			select {
			case e.sem <- struct{}{}:
			case <-done:
				continue // loop re-checks ctx and breaks
			}
			t.rep.Results[t.hi] = e.evalOne(ctx, t.sc, t.h, t.hi)
			<-e.sem
			if m != nil {
				m.queueDepth.Dec()
			}
		}
	} else {
		var cursor atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					if ctx.Err() != nil {
						return
					}
					i := int(cursor.Add(1)) - 1
					if i >= len(tasks) {
						return
					}
					t := &tasks[i]
					select {
					case e.sem <- struct{}{}:
					case <-done:
						return
					}
					t.rep.Results[t.hi] = e.evalOne(ctx, t.sc, t.h, t.hi)
					<-e.sem
					if m != nil {
						m.queueDepth.Dec()
					}
				}
			}()
		}
		wg.Wait()
	}
	// Tasks skipped by cancellation carry the context error so callers
	// can tell "not computed" from "computed infeasible". This runs
	// strictly after every worker exited, so the writes cannot race.
	if err := ctx.Err(); err != nil {
		for i := range tasks {
			t := &tasks[i]
			res := &t.rep.Results[t.hi]
			if res.Schedule == nil && res.Err == nil {
				res.Heuristic = t.h
				res.Err = err
				if m != nil {
					m.queueDepth.Dec()
				}
			}
		}
	}
	for i := range tasks {
		tasks[i] = task{}
	}
	slab.tasks = tasks[:0]
	taskSlabPool.Put(slab)
	for _, rep := range reports {
		rep.pickBest()
	}
	if m != nil {
		for _, rep := range reports {
			if br := rep.BestResult(); br != nil {
				m.wins.With(br.Heuristic.String()).Inc()
			}
		}
		m.raceSeconds.Observe(time.Since(raceStart).Seconds())
	}
	return reports, ctx.Err()
}

// evalOne times one heuristic evaluation into the eval-latency
// histogram when metrics are on; the wall-clock read happens only on
// the enabled path, so a metrics-off run never touches the clock.
func (e *Engine) evalOne(ctx context.Context, sc *Scenario, h sched.Heuristic, hi int) Result {
	m := e.metrics
	if m == nil {
		return e.solveOne(ctx, sc, h, hi)
	}
	start := time.Now()
	res := e.solveOne(ctx, sc, h, hi)
	m.evalSeconds.Observe(time.Since(start).Seconds())
	return res
}

// solveOne schedules one heuristic, through the cache when present.
// Only randomized heuristics get an RNG: the deterministic ones never
// read it, and skipping the construction keeps the hot path lean
// without changing any schedule. Failures are wrapped in
// *sched.HeuristicError naming the policy; context errors pass through
// bare so errors.Is(err, context.Canceled) holds on every layer.
func (e *Engine) solveOne(ctx context.Context, sc *Scenario, h sched.Heuristic, hi int) Result {
	seed := HeuristicSeed(sc.Seed, hi)
	if e.cache == nil {
		s, err := h.ScheduleContext(ctx, sc.Platform, sc.Apps, rngFor(h, seed))
		return Result{Heuristic: h, Schedule: s, Err: heuristicErr(h, err)}
	}
	s, err, fromCache := e.cache.getOrCompute(ctx, sc.Platform, sc.Apps, h, seed, func() (*sched.Schedule, error) {
		// The RNG is built inside the computation so memoized hits do
		// not pay for a stream they never draw from.
		return h.ScheduleContext(ctx, sc.Platform, sc.Apps, rngFor(h, seed))
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
// scenario seeded with scenarioSeed: the substream scenarioSeed ^
// (hi+1)·seedStride. It is exported as the single source of truth for
// that derivation — callers that re-solve individual heuristics outside
// the engine (the DES delta-rescheduling fast path) must reproduce the
// exact streams Evaluate would have drawn, or their results drift from
// the full race bit-for-bit determinism forbids.
func HeuristicSeed(scenarioSeed uint64, hi int) uint64 {
	return scenarioSeed ^ uint64(hi+1)*seedStride
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
// result slices outside Evaluate (the DES delta-rescheduling fast path)
// share the engine's exact selection semantics, ties included.
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
