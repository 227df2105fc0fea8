package des

import (
	"repro/internal/obs"
)

// Metrics is the DES engine's instrumentation bundle. Construct one
// with NewMetrics, optionally attach a Tracer, and set it on
// Scenario.Metrics; a nil *Metrics disables every observation. The
// engine only ever *writes* to the bundle — no simulation decision
// reads it back — so instrumented and bare runs produce bit-identical
// event logs (the conform goldens gate this).
//
// Metric catalog:
//
//	des_simulations_total            counter    completed Simulate calls
//	des_events_total{kind}           counter    log events by kind
//	des_jobs_total                   counter    jobs simulated to completion
//	des_resident_jobs                gauge      jobs holding processors (last event)
//	des_queue_depth                  gauge      admission queue depth (last event)
//	des_allocate_seconds             histogram  wall time of one policy Allocate call
//	des_job_wait                     histogram  per-job wait, virtual time units
//	des_job_stretch                  histogram  per-job stretch (slowdown factor)
//	des_replan_fastpath_total        counter    certified fast-path Allocate calls
//	des_replan_fullsolve_total       counter    full-solve Allocate calls
//	des_replan_memo_hits_total       counter    plan-memo hits
//	des_replan_memo_misses_total     counter    plan-memo misses
//	des_replan_memo_evictions_total  counter    plan-memo FIFO evictions
type Metrics struct {
	simulations *obs.Counter
	jobs        *obs.Counter
	// events is indexed by EventKind — a fixed array of pre-resolved
	// counters, so the per-event hot path is one array load plus one
	// atomic add, with no map lookup and no boxing.
	events        [4]*obs.Counter
	residentJobs  *obs.Gauge
	queueDepth    *obs.Gauge
	allocSeconds  *obs.Histogram
	waitHist      *obs.Histogram
	stretchHist   *obs.Histogram
	replanFast    *obs.Counter
	replanFull    *obs.Counter
	memoHits      *obs.Counter
	memoMisses    *obs.Counter
	memoEvictions *obs.Counter

	// Tracer, when non-nil, records every log event and every policy
	// allocation span with both the virtual clock and wall time. Set it
	// after NewMetrics; a nil tracer is a no-op.
	Tracer *obs.Tracer
}

// NewMetrics registers the DES metric families on reg and returns the
// handle bundle, or nil when reg is nil (metrics disabled).
// Registration is idempotent: scenarios sharing a registry accumulate
// into the same series.
func NewMetrics(reg *obs.Registry) *Metrics {
	if reg == nil {
		return nil
	}
	m := &Metrics{
		simulations: reg.Counter("des_simulations_total", "Completed Simulate calls"),
		jobs:        reg.Counter("des_jobs_total", "Jobs simulated to completion"),
		residentJobs: reg.Gauge("des_resident_jobs",
			"Jobs holding processors after the last logged event"),
		queueDepth: reg.Gauge("des_queue_depth",
			"Queued jobs (FIFO + zero-allocation residents) after the last logged event"),
		allocSeconds: reg.Histogram("des_allocate_seconds",
			"Wall time of one policy Allocate call", obs.ExpBuckets(1e-6, 4, 10)),
		// Virtual-time units span huge ranges (platform-dependent), so
		// the wait buckets sweep 1..8^11 in virtual seconds.
		waitHist: reg.Histogram("des_job_wait",
			"Per-job wait time (virtual units)", obs.ExpBuckets(1, 8, 12)),
		stretchHist: reg.Histogram("des_job_stretch",
			"Per-job stretch (response / dedicated execution time)", obs.ExpBuckets(1, 2, 12)),
		replanFast:    reg.Counter("des_replan_fastpath_total", "Certified fast-path Allocate calls"),
		replanFull:    reg.Counter("des_replan_fullsolve_total", "Full-solve Allocate calls"),
		memoHits:      reg.Counter("des_replan_memo_hits_total", "Plan-memo hits"),
		memoMisses:    reg.Counter("des_replan_memo_misses_total", "Plan-memo misses"),
		memoEvictions: reg.Counter("des_replan_memo_evictions_total", "Plan-memo FIFO evictions"),
	}
	vec := reg.CounterVec("des_events_total", "Log events by kind", "kind")
	for _, k := range []EventKind{EventArrival, EventStart, EventFinish, EventRepartition} {
		m.events[k] = vec.With(k.String())
	}
	return m
}

// count is the metrics' event sink: the event's kind counter and the
// occupancy gauges after it.
func (m *Metrics) count(ev Event) {
	m.events[ev.Kind].Inc()
	m.residentJobs.Set(int64(ev.Resident))
	m.queueDepth.Set(int64(ev.Queued))
}

// trace is the Tracer's event sink.
func (m *Metrics) trace(ev Event) {
	m.Tracer.Event(ev.Kind.String(), ev.Name, ev.Time, ev.Job)
}

// observeReplan folds a finished run's delta-rescheduling telemetry
// into the counters. Called once per Simulate, so the counters stay
// monotone across runs sharing a registry.
func (m *Metrics) observeReplan(st ReplanStats) {
	if m == nil {
		return
	}
	m.replanFast.Add(st.FastPath)
	m.replanFull.Add(st.FullSolve)
	m.memoHits.Add(st.MemoHits)
	m.memoMisses.Add(st.MemoMisses)
	m.memoEvictions.Add(st.MemoEvictions)
}
