package portfolio

import (
	"context"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/selector"
)

// SelectorPolicy races the heuristic a trained ledger predicts to win
// and falls back to the full portfolio race when the prediction is not
// confident. The selection itself — which heuristic, from which
// bucket, under which thresholds — is a pure function of (ledger,
// scenario), so it is bit-deterministic at any worker count; only the
// amount of work saved varies with how much the ledger has seen.
//
// The shortcut preserves the engine's determinism contract: the single
// predicted run draws the exact RNG substream the same heuristic would
// have drawn inside the full race (see the seed derivation in Select),
// so its schedule — and any memo cache entry it creates — is
// bit-identical to the full race's result for that heuristic.
type SelectorPolicy struct {
	engine *Engine
	th     selector.Thresholds
	learn  bool
	audit  bool
	m      *SelectorMetrics

	mu     sync.RWMutex // guards ledger: Predict under RLock, Observe under Lock
	ledger *selector.Ledger

	predictions atomic.Uint64
	fallbacks   atomic.Uint64
}

// SelectorConfig parameterizes NewSelector.
type SelectorConfig struct {
	// Engine runs the races. Required.
	Engine *Engine
	// Ledger supplies predictions. Nil means an empty ledger: every
	// scenario falls back to the full race (and trains the ledger when
	// Learn is set).
	Ledger *selector.Ledger
	// Thresholds gates when a prediction skips the race. The zero value
	// means selector.DefaultThresholds().
	Thresholds selector.Thresholds
	// Learn feeds fallback race outcomes back into the ledger. Off by
	// default: a serving policy should select from a committed fixture,
	// not drift with traffic. Training runs (cmd/ledger) turn it on.
	Learn bool
	// Audit additionally runs the full race after every shortcut and
	// records the realized optimality gap — the conform harness's
	// measurement mode. It spends the work the shortcut saved, so it is
	// for verification, never serving.
	Audit bool
	// Metrics instruments the policy (see NewSelectorMetrics). Nil
	// disables observation.
	Metrics *SelectorMetrics
}

// NewSelector builds a SelectorPolicy.
func NewSelector(cfg SelectorConfig) *SelectorPolicy {
	l := cfg.Ledger
	if l == nil {
		l = selector.New()
	}
	th := cfg.Thresholds
	if th == (selector.Thresholds{}) {
		th = selector.DefaultThresholds()
	}
	return &SelectorPolicy{
		engine: cfg.Engine,
		ledger: l,
		th:     th,
		learn:  cfg.Learn,
		audit:  cfg.Audit,
		m:      cfg.Metrics,
	}
}

// Decision is the outcome of one selected scenario.
type Decision struct {
	// Report is what was served: a single-result report when the
	// prediction was followed, the full race otherwise.
	Report *Report
	// Predicted reports whether the shortcut was taken.
	Predicted bool
	// Prediction is the ledger's call (zero when the bucket had no
	// evidence).
	Prediction selector.Prediction
	// FallbackReason is "" when Predicted, else one of "no-evidence",
	// "unconfident", "infeasible" (the predicted run failed and the
	// full race answered instead).
	FallbackReason string
	// Gap is the audited optimality gap: the served makespan over the
	// full race's best. 1 when the prediction matched the race winner;
	// NaN when not audited or when no feasible baseline exists.
	Gap float64
	// Full is the audit race (nil unless Audit was configured and the
	// shortcut was taken).
	Full *Report
}

// Stats are the policy's lifetime counters.
type SelectorStats struct {
	Predictions uint64 // scenarios served via the predicted-winner shortcut
	Fallbacks   uint64 // scenarios that ran the full race
}

// Stats returns the policy's counters.
func (p *SelectorPolicy) Stats() SelectorStats {
	return SelectorStats{Predictions: p.predictions.Load(), Fallbacks: p.fallbacks.Load()}
}

// Ledger returns the policy's ledger (live: Learn mutates it).
func (p *SelectorPolicy) Ledger() *selector.Ledger { return p.ledger }

// Select evaluates one scenario through the selector: predicted winner
// first, full race on doubt. The Decision's Report is never nil when
// err is nil.
func (p *SelectorPolicy) Select(ctx context.Context, sc Scenario) (*Decision, error) {
	candidates := sc.heuristics()
	bucket := selector.Extract(sc.Platform, sc.Apps).Bucket()
	p.mu.RLock()
	pred, ok := p.ledger.Predict(bucket, candidates)
	p.mu.RUnlock()
	d := &Decision{Prediction: pred, Gap: math.NaN()}
	switch {
	case !ok:
		d.FallbackReason = "no-evidence"
	case !pred.Confident(p.th):
		d.FallbackReason = "unconfident"
	default:
		rep, err := p.evalPredicted(ctx, sc, candidates, pred.Heuristic)
		if err != nil {
			return nil, err
		}
		if rep.Best >= 0 {
			d.Report = rep
			d.Predicted = true
			p.predictions.Add(1)
			if p.m != nil {
				p.m.predictions.Inc()
			}
			return p.audited(ctx, sc, d)
		}
		// The predicted heuristic was infeasible on this scenario —
		// rare (the bucket's evidence said otherwise) but recoverable:
		// the full race is the answer either way.
		d.FallbackReason = "infeasible"
	}
	rep, err := p.engine.EvaluateContext(ctx, sc)
	if err != nil {
		return nil, err
	}
	d.Report = rep
	p.fallbacks.Add(1)
	if p.m != nil {
		p.m.fallbacks.With(d.FallbackReason).Inc()
	}
	if p.learn && rep.Err == nil {
		p.observe(bucket, rep)
	}
	return d, nil
}

// evalPredicted races only the predicted winner, on the RNG substream
// it would have drawn at its index inside the full race: the engine
// seeds heuristic 0 of a scenario with HeuristicSeed(Seed, 0), an XOR
// that is its own inverse, so a lone run seeded with
// HeuristicSeed(HeuristicSeed(sc.Seed, hi), 0) reproduces
// HeuristicSeed(sc.Seed, hi) exactly — and shares memo cache entries
// with the full race.
func (p *SelectorPolicy) evalPredicted(ctx context.Context, sc Scenario, candidates []sched.Heuristic, h sched.Heuristic) (*Report, error) {
	hi := 0
	for i, c := range candidates {
		if c == h {
			hi = i
			break
		}
	}
	one := sc
	one.Heuristics = []sched.Heuristic{h}
	one.Seed = HeuristicSeed(HeuristicSeed(sc.Seed, hi), 0)
	return p.engine.EvaluateContext(ctx, one)
}

// audited runs the full race behind a taken shortcut and measures the
// realized gap.
func (p *SelectorPolicy) audited(ctx context.Context, sc Scenario, d *Decision) (*Decision, error) {
	if !p.audit {
		return d, nil
	}
	full, err := p.engine.EvaluateContext(ctx, sc)
	if err != nil {
		return nil, err
	}
	d.Full = full
	if br, sel := full.BestResult(), d.Report.BestResult(); br != nil && sel != nil && br.Schedule.Makespan > 0 {
		d.Gap = sel.Schedule.Makespan / br.Schedule.Makespan
		if p.m != nil {
			p.m.regret.Observe(d.Gap - 1)
		}
	}
	return d, nil
}

// observe folds a finished full race into the ledger.
func (p *SelectorPolicy) observe(bucket string, rep *Report) {
	outs := rep.Outcomes()
	p.mu.Lock()
	p.ledger.Observe(bucket, outs)
	p.mu.Unlock()
}

// Outcomes converts the race into the per-heuristic outcomes a ledger
// learns from, in heuristic order: a heuristic counts as OK when it
// produced a schedule.
func (r *Report) Outcomes() []selector.Outcome {
	outs := make([]selector.Outcome, len(r.Results))
	for i, res := range r.Results {
		outs[i] = selector.Outcome{Heuristic: res.Heuristic, OK: res.Err == nil && res.Schedule != nil}
		if outs[i].OK {
			outs[i].Makespan = res.Schedule.Makespan
		}
	}
	return outs
}

// SelectorMetrics instruments a SelectorPolicy.
//
// Metric catalog:
//
//	selector_predictions_total         counter    scenarios served via the shortcut
//	selector_fallbacks_total{reason}   counter    full races, by fallback reason
//	selector_regret                    histogram  audited gap - 1 per shortcut
type SelectorMetrics struct {
	predictions *obs.Counter
	fallbacks   *obs.CounterVec
	regret      *obs.Histogram
}

// NewSelectorMetrics registers the selector metric family on reg, or
// returns nil when reg is nil (metrics disabled).
func NewSelectorMetrics(reg *obs.Registry) *SelectorMetrics {
	if reg == nil {
		return nil
	}
	return &SelectorMetrics{
		predictions: reg.Counter("selector_predictions_total", "Scenarios served via the predicted-winner shortcut"),
		fallbacks:   reg.CounterVec("selector_fallbacks_total", "Full portfolio races run by the selector", "reason"),
		regret:      reg.Histogram("selector_regret", "Audited optimality gap minus one per shortcut", obs.ExpBuckets(1e-6, 10, 8)),
	}
}
