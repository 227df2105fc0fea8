package portfolio

import (
	"time"

	"repro/internal/obs"
)

// Metrics is the portfolio engine's instrumentation bundle. Construct
// one with NewMetrics and hand it to Config.Metrics; a nil *Metrics
// (the zero value of the field, or NewMetrics(nil)) disables every
// observation at the cost of one nil check per site — the engine's
// hot path stays allocation-free and bit-identical either way.
//
// Metric catalog:
//
//	portfolio_batches_total        counter    calls: one Evaluate race or one batch dispatch
//	portfolio_scenarios_total      counter    scenarios raced (a batch counts each one it pulls)
//	portfolio_evals_total          counter    (scenario, heuristic) evaluations
//	portfolio_race_seconds         histogram  wall time of one call
//	portfolio_eval_seconds         histogram  wall time of one heuristic evaluation
//	portfolio_queue_depth          gauge      evaluations of started races, not yet resolved
//	portfolio_wins_total{heuristic} counter   per-heuristic race wins
//	portfolio_cache_hits_total     counter    memo cache hits (when caching)
//	portfolio_cache_misses_total   counter    memo cache misses
//	portfolio_cache_evictions_total counter   cancellation-evicted entries
//	portfolio_cache_capacity_evictions_total counter  CLOCK-evicted entries of full shards
//	portfolio_cache_entries        gauge      live memo entries
type Metrics struct {
	batches     *obs.Counter
	scenarios   *obs.Counter
	evals       *obs.Counter
	raceSeconds *obs.Histogram
	evalSeconds *obs.Histogram
	queueDepth  *obs.Gauge
	wins        *obs.CounterVec
	reg         *obs.Registry
}

// evalBuckets spans sub-microsecond memo hits to multi-second oracle
// races: 1µs·4^i for 10 buckets (≈1µs … 0.26s) plus +Inf.
func evalBuckets() []float64 { return obs.ExpBuckets(1e-6, 4, 10) }

// NewMetrics registers the portfolio metric family on reg and returns
// the handle bundle, or nil when reg is nil (metrics disabled).
// Registration is idempotent: engines sharing a registry share series.
func NewMetrics(reg *obs.Registry) *Metrics {
	if reg == nil {
		return nil
	}
	return &Metrics{
		batches:     reg.Counter("portfolio_batches_total", "EvaluateBatch calls"),
		scenarios:   reg.Counter("portfolio_scenarios_total", "Scenarios raced"),
		evals:       reg.Counter("portfolio_evals_total", "Heuristic evaluations (incl. cache hits)"),
		raceSeconds: reg.Histogram("portfolio_race_seconds", "Wall time of one batch race", evalBuckets()),
		evalSeconds: reg.Histogram("portfolio_eval_seconds", "Wall time of one heuristic evaluation", evalBuckets()),
		queueDepth:  reg.Gauge("portfolio_queue_depth", "Evaluations admitted but not yet resolved"),
		wins:        reg.CounterVec("portfolio_wins_total", "Race wins per heuristic", "heuristic"),
		reg:         reg,
	}
}

// startCall counts a call racing n scenarios and returns its start
// time, or the zero time with metrics off so the clock is never read.
func (m *Metrics) startCall(n int) time.Time {
	if m == nil {
		return time.Time{}
	}
	m.batches.Inc()
	m.scenarios.Add(uint64(n))
	return time.Now()
}

// pulled counts one scenario a batch dispatch pulled.
func (m *Metrics) pulled() {
	if m != nil {
		m.scenarios.Inc()
	}
}

// endCall observes the wall time of a call started by startCall.
func (m *Metrics) endCall(start time.Time) {
	if m != nil {
		m.raceSeconds.Observe(time.Since(start).Seconds())
	}
}

// bindCache exports the cache's own monotonic counters as func metrics
// — reads happen at scrape time, so the cache hot path pays nothing.
func (m *Metrics) bindCache(c *Cache) {
	if m == nil || c == nil {
		return
	}
	m.reg.CounterFunc("portfolio_cache_hits_total", "Memo cache hits",
		func() float64 { return float64(c.hits.Load()) })
	m.reg.CounterFunc("portfolio_cache_misses_total", "Memo cache misses",
		func() float64 { return float64(c.misses.Load()) })
	m.reg.CounterFunc("portfolio_cache_evictions_total", "Cancellation-evicted memo entries",
		func() float64 { return float64(c.evictions.Load()) })
	m.reg.CounterFunc("portfolio_cache_capacity_evictions_total", "Memo entries evicted to bound a full shard",
		func() float64 { return float64(c.capEvictions.Load()) })
	m.reg.GaugeFunc("portfolio_cache_entries", "Live memo entries",
		func() float64 { return float64(c.Stats().Entries) })
}
