package portfolio

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/solve"
	"repro/internal/workload"
)

// npbSweepScenarios builds the benchmark workload: the paper's NPB
// fleet swept across platform sizes and sequential fractions, one full
// extended-heuristic portfolio per scenario. Memoization is disabled so
// the benchmark measures scheduling work, not cache lookups.
func npbSweepScenarios() []Scenario {
	var out []Scenario
	rng := solve.NewRNG(0x5EED)
	for _, p := range []float64{64, 128, 256} {
		for _, seqf := range []float64{0, 0.05, 0.1} {
			pl := model.TaihuLight()
			pl.Processors = p
			apps := workload.NPB()
			for i := range apps {
				apps[i].SeqFraction = seqf
			}
			out = append(out, Scenario{Platform: pl, Apps: apps, Seed: rng.Uint64()})
		}
	}
	return out
}

// BenchmarkPortfolioSweep measures the full-portfolio NPB sweep at
// several worker counts; workers=1 is the serial baseline the
// acceptance criterion (≥2× at 4+ workers) compares against. Run via
// scripts/bench.sh, which computes the speedup and checks it against
// the committed baseline.
func BenchmarkPortfolioSweep(b *testing.B) {
	scenarios := npbSweepScenarios()
	counts := []int{1, 2, 4, runtime.GOMAXPROCS(0)}
	if counts[3] <= 4 {
		counts = counts[:3]
	}
	for _, w := range counts {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			eng := New(Config{Workers: w})
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				reports := eng.EvaluateBatch(scenarios)
				for _, rep := range reports {
					if rep.Err != nil {
						b.Fatal(rep.Err)
					}
					if rep.Best < 0 {
						b.Fatal("no feasible schedule")
					}
				}
			}
		})
	}
}

// BenchmarkPortfolioSweepMetrics is the instrumented twin of the
// GOMAXPROCS arm of BenchmarkPortfolioSweep: same sweep, with a live
// registry recording every series. Comparing the two pins the
// metrics-on overhead; the benchgate tolerance is the regression gate.
func BenchmarkPortfolioSweepMetrics(b *testing.B) {
	scenarios := npbSweepScenarios()
	reg := obs.NewRegistry()
	eng := New(Config{Workers: runtime.GOMAXPROCS(0), Metrics: NewMetrics(reg)})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		reports := eng.EvaluateBatch(scenarios)
		for _, rep := range reports {
			if rep.Err != nil {
				b.Fatal(rep.Err)
			}
			if rep.Best < 0 {
				b.Fatal("no feasible schedule")
			}
		}
	}
}

// BenchmarkPortfolioMemoized measures the same sweep served entirely
// from a warm memoization cache: the steady-state cost of re-serving
// known scenarios. It runs at one worker because its allocations are
// gated: with more workers the nine-scenario batch starts helper
// goroutines and the pools refill per P, so allocs/op would grow with
// GOMAXPROCS.
func BenchmarkPortfolioMemoized(b *testing.B) {
	scenarios := npbSweepScenarios()
	eng := New(Config{Workers: 1, Cache: NewCache()})
	eng.EvaluateBatch(scenarios) // warm
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, rep := range eng.EvaluateBatch(scenarios) {
			if rep.Err != nil {
				b.Fatal(rep.Err)
			}
		}
	}
}

// BenchmarkSelectorSweep measures the learned-selection shortcut on the
// same NPB sweep as BenchmarkPortfolioSweep, at one worker so the
// numbers compare work, not parallelism. mode=full runs the selector
// with an empty ledger (every scenario falls back to the full race —
// the selector's overhead on top of the sweep); mode=selector runs from
// a ledger trained on the sweep itself, so every scenario is served by
// the single predicted heuristic. scripts/bench.sh gates the
// selector-vs-full-race work reduction via benchgate.
func BenchmarkSelectorSweep(b *testing.B) {
	scenarios := npbSweepScenarios()
	train := NewSelector(SelectorConfig{Engine: New(Config{Workers: 1}), Learn: true})
	for _, sc := range scenarios {
		if _, err := train.Select(context.Background(), sc); err != nil {
			b.Fatal(err)
		}
	}
	for _, mode := range []string{"full", "selector"} {
		ledger := train.Ledger()
		if mode == "full" {
			ledger = nil
		}
		b.Run("mode="+mode, func(b *testing.B) {
			p := NewSelector(SelectorConfig{Engine: New(Config{Workers: 1}), Ledger: ledger})
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, sc := range scenarios {
					d, err := p.Select(context.Background(), sc)
					if err != nil {
						b.Fatal(err)
					}
					if d.Report.Best < 0 {
						b.Fatal("no feasible schedule")
					}
					if mode == "selector" && !d.Predicted {
						b.Fatalf("trained ledger fell back (%s) — the benchmark would not measure the shortcut", d.FallbackReason)
					}
				}
			}
		})
	}
}
