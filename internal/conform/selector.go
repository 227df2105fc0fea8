package conform

import (
	"context"
	"math"

	"repro/internal/genscen"
	"repro/internal/portfolio"
	"repro/internal/selector"
)

// DefaultSelectorGapBound is the committed optimality-gap bound for
// served predictions on oracle-exact families: a selector shortcut may
// cost at most 5% makespan over the full race there, or the scenario is
// a violation. With the ledger TrainLedger builds the zero-work family
// never accumulates margin evidence (every heuristic ties at makespan 0), so
// its scenarios always fall back to the full race and trivially meet
// the bound; the bound bites as soon as a ledger gains enough evidence
// there to serve a genuinely bad prediction.
const DefaultSelectorGapBound = 1.05

// TrainLedger races the full extended portfolio over the genscen
// instances of every family for seeds seedStart .. seedStart+seeds-1
// and folds the outcomes into l. The evidence is a pure function of
// the sweep parameters: the instances are seeded and the races are
// worker-count invariant. The engine memoizes nothing, because no
// (scenario, heuristic) pair of the sweep repeats.
func TrainLedger(ctx context.Context, l *selector.Ledger, fams []genscen.Family, seedStart, seeds, workers int) error {
	eng := portfolio.New(portfolio.Config{Workers: workers})
	for _, fam := range fams {
		for s := 0; s < seeds; s++ {
			in, err := genscen.Generate(fam, uint64(seedStart+s), genscen.Config{})
			if err != nil {
				return err
			}
			rep, err := eng.EvaluateContext(ctx, in.PortfolioScenario(nil))
			if err != nil {
				return err
			}
			l.Observe(selector.Extract(in.Platform, in.Apps).Bucket(), rep.Outcomes())
		}
	}
	return nil
}

// SelectorSummary aggregates one family's learned-selection decisions:
// how often the ledger's prediction was served versus falling back to
// the full race, and the audited optimality gap of the served
// predictions (gap = served makespan / full-race best, so 1 means the
// prediction was the race winner).
type SelectorSummary struct {
	Races         int     `json:"races"`
	Predicted     int     `json:"predicted"`
	Fallbacks     int     `json:"fallbacks"`
	FallbackRatio float64 `json:"fallbackRatio"`
	GapMax        float64 `json:"gapMax,omitempty"`
	GapGeoMean    float64 `json:"gapGeoMean,omitempty"`
}

// selDecision is one scenario's selector outcome.
type selDecision struct {
	predicted bool
	gap       float64 // audited; NaN when not predicted
}

// selAccum folds scenario decisions into a family summary.
type selAccum struct {
	races, predicted int
	gapMax           float64
	gapLogSum        float64
	gapN             int
}

func (a *selAccum) add(d *selDecision) {
	if d == nil {
		return
	}
	a.races++
	if !d.predicted {
		return
	}
	a.predicted++
	if !math.IsNaN(d.gap) {
		a.gapN++
		a.gapMax = math.Max(a.gapMax, d.gap)
		a.gapLogSum += math.Log(d.gap)
	}
}

func (a *selAccum) summary() *SelectorSummary {
	s := &SelectorSummary{
		Races:     a.races,
		Predicted: a.predicted,
		Fallbacks: a.races - a.predicted,
	}
	if a.races > 0 {
		s.FallbackRatio = float64(s.Fallbacks) / float64(a.races)
	}
	if a.gapN > 0 {
		s.GapMax = a.gapMax
		s.GapGeoMean = math.Exp(a.gapLogSum / float64(a.gapN))
	}
	return s
}

// checkSelector decides the scenario with the ledger-driven selector in
// audit mode on the serial engine, checks the audited gap bound on
// oracle-exact families, and — the determinism arm — repeats the
// decision on the parallel engine and requires it to be bit-identical:
// which heuristic was predicted, whether the shortcut was taken, the
// served schedules and the audited gap must all agree, because
// selection is a pure function of (ledger, scenario).
func checkSelector(in *genscen.Instance, opt Options, serial, parallel *portfolio.Engine, flag func(string, string, ...any)) (*selDecision, error) {
	decide := func(eng *portfolio.Engine) (*portfolio.Decision, error) {
		pol := portfolio.NewSelector(portfolio.SelectorConfig{
			Engine: eng,
			Ledger: opt.Selector,
			Audit:  true,
		})
		return pol.Select(context.Background(), in.PortfolioScenario(nil))
	}
	d1, err := decide(serial)
	if err != nil {
		return nil, err
	}
	if opt.Workers > 1 {
		d2, err := decide(parallel)
		if err != nil {
			return nil, err
		}
		switch {
		case d1.Predicted != d2.Predicted || d1.FallbackReason != d2.FallbackReason:
			flag("selector-determinism", "decision differs between 1 and %d workers: predicted=%v/%v reason=%q/%q",
				opt.Workers, d1.Predicted, d2.Predicted, d1.FallbackReason, d2.FallbackReason)
		case d1.Prediction.Heuristic != d2.Prediction.Heuristic:
			flag("selector-determinism", "predicted heuristic differs between 1 and %d workers: %v != %v",
				opt.Workers, d1.Prediction.Heuristic, d2.Prediction.Heuristic)
		case reportDigest(d1.Report) != reportDigest(d2.Report):
			flag("selector-determinism", "served report differs between 1 and %d workers", opt.Workers)
		case hexFloat(d1.Gap) != hexFloat(d2.Gap):
			flag("selector-determinism", "audited gap differs between 1 and %d workers: %v != %v",
				opt.Workers, d1.Gap, d2.Gap)
		}
	}
	if d1.Predicted && in.Family.OracleExact() && d1.Gap > opt.SelectorGapBound*(1+relTol) {
		flag("selector-gap", "served prediction %v has audited gap %v, above the committed bound %v",
			d1.Prediction.Heuristic, d1.Gap, opt.SelectorGapBound)
	}
	return &selDecision{predicted: d1.Predicted, gap: d1.Gap}, nil
}
