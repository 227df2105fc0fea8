// Package experiments reproduces the paper's evaluation: every figure of
// Section 6 and Appendix A (Figures 1–18) and the two tables. Each
// FigureN function builds the corresponding workload, sweeps the paper's
// parameter, runs the heuristics over independent replicates and returns
// the aggregated series; rendering (CSV, ASCII) lives in render.go.
//
// All figures follow the paper's protocol: 50 replicates per
// configuration, mean makespan reported, platform defaults from Section
// 6.1 (one Sunway TaihuLight node: p = 256, Cs = 32 GB, ll = 1,
// ls = 0.17, α = 0.5).
package experiments

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/portfolio"
	"repro/internal/sched"
	"repro/internal/solve"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Config controls experiment execution.
type Config struct {
	// Replicates per sweep point; the paper uses 50. Values < 1 are
	// treated as the default 50.
	Replicates int
	// Seed of the master random stream; replicate r of sweep point k
	// derives an independent substream, so results are reproducible and
	// insensitive to execution order.
	Seed uint64
	// Engine optionally supplies a shared portfolio engine, so several
	// experiments can pool workers. Nil means a private engine per
	// experiment, with the portfolio's default worker count.
	Engine *portfolio.Engine
}

// DefaultConfig matches the paper's protocol.
func DefaultConfig() Config { return Config{Replicates: 50, Seed: 0x5EED} }

func (c Config) replicates() int {
	if c.Replicates < 1 {
		return 50
	}
	return c.Replicates
}

// engine returns the portfolio engine experiments run on. No
// memoization cache: every sweep cell is a distinct workload, so a
// cache would only accumulate entries without ever hitting.
func (c Config) engine() *portfolio.Engine {
	if c.Engine != nil {
		return c.Engine
	}
	return portfolio.New(portfolio.Config{})
}

// Figure is the aggregated output of one experiment: one series per
// heuristic (plus derived series for repartition figures), with raw
// (unnormalized) makespans. Use Normalized to apply the paper's
// normalization.
type Figure struct {
	ID     string // "fig1" … "fig18"
	Title  string
	XLabel string
	YLabel string
	Series []stats.Series
}

// SeriesByName returns the named series, or nil.
func (f *Figure) SeriesByName(name string) *stats.Series {
	for i := range f.Series {
		if f.Series[i].Name == name {
			return &f.Series[i]
		}
	}
	return nil
}

// Normalized returns a copy of the figure with every series divided,
// point-wise, by the base series' mean (the paper normalizes to either
// AllProcCache or DominantMinRatio). The base series itself normalizes
// to 1. It returns an error if base is absent.
func (f *Figure) Normalized(base string) (*Figure, error) {
	b := f.SeriesByName(base)
	if b == nil {
		return nil, fmt.Errorf("experiments: %s has no series %q to normalize by", f.ID, base)
	}
	out := &Figure{ID: f.ID, Title: f.Title + " (normalized to " + base + ")", XLabel: f.XLabel, YLabel: "Normalized Makespan"}
	for _, s := range f.Series {
		out.Series = append(out.Series, *s.Normalize(b))
	}
	return out, nil
}

// sweep runs the generic experiment loop: for every x in xs and every
// replicate, build (platform, apps) and measure each heuristic's
// makespan. Replicate r at every sweep point reuses the same workload
// stream (paired comparison, as in the authors' simulator), so curves
// differ only through the swept parameter.
//
// Every (x, replicate) cell becomes one portfolio scenario; the
// engine's batch dispatcher spreads the scenarios over its workers. Heuristic-internal randomness derives from the replicate stream
// and the heuristic's position (the engine's substream rule matches the
// historical serial loop), so results are bit-identical to sequential
// execution regardless of worker count.
func sweep(cfg Config, hs []sched.Heuristic, xs []float64,
	build func(x float64, rng *solve.RNG) (model.Platform, []model.Application, error),
) ([]stats.Series, error) {
	reps := cfg.replicates()
	repStreams := replicateStreams(cfg)

	scenarios := make([]portfolio.Scenario, 0, len(xs)*reps)
	for _, x := range xs {
		for r := 0; r < reps; r++ {
			pl, apps, err := build(x, solve.NewRNG(repStreams[r]))
			if err != nil {
				return nil, fmt.Errorf("experiments: build at x=%g: %w", x, err)
			}
			scenarios = append(scenarios, portfolio.Scenario{
				Platform: pl, Apps: apps, Heuristics: hs, Seed: repStreams[r],
			})
		}
	}
	reports := cfg.engine().EvaluateBatch(scenarios)

	series := make([]stats.Series, len(hs))
	for hi, h := range hs {
		series[hi] = stats.Series{Name: h.String()}
	}
	vals := make([]float64, reps)
	for xi, x := range xs {
		for hi, h := range hs {
			for r := 0; r < reps; r++ {
				rep := reports[xi*reps+r]
				if rep.Err != nil {
					return nil, rep.Err
				}
				res := rep.Results[hi]
				if res.Err != nil {
					return nil, fmt.Errorf("experiments: %v at x=%g: %w", h, x, res.Err)
				}
				vals[r] = res.Schedule.Makespan
			}
			sum, err := stats.Summarize(vals)
			if err != nil {
				return nil, err
			}
			series[hi].Points = append(series[hi].Points, stats.Point{X: x, Summary: sum})
		}
	}
	return series, nil
}

// replicateStreams pre-splits one stream per replicate so every sweep
// point sees the same per-replicate randomness.
func replicateStreams(cfg Config) []uint64 {
	master := solve.NewRNG(cfg.Seed)
	repStreams := make([]uint64, cfg.replicates())
	for r := range repStreams {
		repStreams[r] = master.Uint64()
	}
	return repStreams
}

// Sweep grids used across figures.
func appCounts() []float64 { return []float64{1, 2, 4, 8, 16, 32, 64, 96, 128, 192, 256} }
func procCounts() []float64 {
	return []float64{16, 32, 64, 96, 128, 160, 192, 224, 256}
}
func seqFractions() []float64 {
	return []float64{0.0001, 0.01, 0.025, 0.05, 0.075, 0.1, 0.125, 0.15}
}
func missRates() []float64 {
	return []float64{0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
}
func lsValues() []float64 {
	return []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
}

// comparisonHeuristics is the Section 6.3 set.
var comparisonHeuristics = []sched.Heuristic{
	sched.AllProcCache, sched.DominantMinRatio, sched.RandomPart, sched.Fair, sched.ZeroCache,
}

// platformWithProcessors returns the reference platform with p
// processors.
func platformWithProcessors(p float64) model.Platform {
	pl := model.TaihuLight()
	pl.Processors = p
	return pl
}

// genApps builds a workload of n applications from gen with sequential
// fractions drawn from the Section 6.1 default range.
func genApps(gen workload.Generator, n int, rng *solve.RNG) ([]model.Application, error) {
	return workload.Generate(workload.Config{Generator: gen, N: n}, rng)
}

// genAppsFixedSeq builds a workload with every sequential fraction set to
// s.
func genAppsFixedSeq(gen workload.Generator, n int, s float64, rng *solve.RNG) ([]model.Application, error) {
	return workload.Generate(workload.Config{Generator: gen, N: n, Seq: s, SeqFixed: true}, rng)
}
