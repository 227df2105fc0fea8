package des

import (
	"testing"

	"repro/internal/obs"
)

// BenchmarkDESPoisson measures the full online pipeline — Poisson
// arrival generation, event-loop bookkeeping and per-event heuristic
// repartitioning — for a 64-job open stream on a node capped at 8
// co-resident jobs. It is the hot path of every dynamic-workload study
// the subsystem enables.
func BenchmarkDESPoisson(b *testing.B) {
	sp := Spec{
		Arrivals:    ArrivalSpec{Process: "poisson", Rate: 4e-9, N: 64},
		Policy:      "DominantMinRatio",
		MaxResident: 8,
		Seed:        42,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc, err := sp.Build()
		if err != nil {
			b.Fatal(err)
		}
		res, err := Simulate(sc)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Jobs) != 64 {
			b.Fatalf("simulated %d jobs", len(res.Jobs))
		}
	}
}

// BenchmarkDESPortfolio measures the same stream repartitioned by the
// portfolio policy — the upper bound of per-event decision cost (every
// concurrent heuristic raced at every arrival/completion). The race
// runs serially on the simulating goroutine, so the allocs/op that
// benchgate gates strictly never follow goroutine scheduling.
func BenchmarkDESPortfolio(b *testing.B) {
	sp := Spec{
		Arrivals:    ArrivalSpec{Process: "poisson", Rate: 4e-9, N: 32},
		Policy:      "portfolio",
		MaxResident: 6,
		Seed:        42,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc, err := sp.Build()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Simulate(sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDESPortfolioMetrics is the instrumented twin of
// BenchmarkDESPortfolio: the same stream with a live registry counting
// every event, gauge update and allocation timing. Comparing the pair
// pins the metrics-on overhead of the event loop's hot path; like its
// twin it races serially, so allocs/op are deterministic.
func BenchmarkDESPortfolioMetrics(b *testing.B) {
	sp := Spec{
		Arrivals:    ArrivalSpec{Process: "poisson", Rate: 4e-9, N: 32},
		Policy:      "portfolio",
		MaxResident: 6,
		Seed:        42,
	}
	m := NewMetrics(obs.NewRegistry())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc, err := sp.Build()
		if err != nil {
			b.Fatal(err)
		}
		sc.Metrics = m
		if _, err := Simulate(sc); err != nil {
			b.Fatal(err)
		}
	}
}

// runHighRate executes the saturated-stream scenario the delta
// benchmarks share: arrivals an order of magnitude faster than service,
// so the node stays at its residency cap and the stream drains in
// recurring waves of cycled template jobs — the regime where
// incremental replanning pays. The templates are general Amdahl
// profiles (nonzero sequential fraction), so every cold solve runs the
// bisection equalizer rather than the perfectly-parallel Lemma-2
// shortcut — the representative cost replanning avoids. Both policy
// variants race serially, as every online race does, so the delta/full
// ratio measures replanning work, not parallelism, and is comparable
// across CPU counts.
func runHighRate(b *testing.B, policy string, n int) {
	b.Helper()
	sp := Spec{
		Apps: []AppSpec{
			{Name: "hr-a", Work: 2e10, Seq: 0.05, Freq: 50, MissRate: 0.05, RefCache: 1e9, Footprint: 16e9},
			{Name: "hr-b", Work: 3e10, Seq: 0.12, Freq: 80, MissRate: 0.08, RefCache: 2e9, Footprint: 24e9},
			{Name: "hr-c", Work: 1.5e10, Seq: 0.02, Freq: 120, MissRate: 0.03, RefCache: 1.5e9, Footprint: 8e9},
			{Name: "hr-d", Work: 2.5e10, Seq: 0.2, Freq: 30, MissRate: 0.1, RefCache: 3e9, Footprint: 32e9},
		},
		Arrivals:    ArrivalSpec{Process: "poisson", Rate: 4e-7, N: n},
		Policy:      policy,
		MaxResident: 8,
		Seed:        42,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Scenario construction (arrival generation, app cloning) is
		// identical across the delta/full pair and not what the ratio
		// gate measures — keep it off the clock.
		b.StopTimer()
		sc, err := sp.Build()
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res, err := Simulate(sc)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Jobs) != n {
			b.Fatalf("simulated %d jobs", len(res.Jobs))
		}
	}
}

// BenchmarkDESPortfolioHighRate is the delta-rescheduling headline
// pair: the same high-arrival-rate portfolio stream with the certified
// fast path on (delta, the default) and off (full). benchgate pins
// their ratio — see benchmarks/README.md.
func BenchmarkDESPortfolioHighRate(b *testing.B) {
	b.Run("delta", func(b *testing.B) { runHighRate(b, "portfolio", 2048) })
	b.Run("full", func(b *testing.B) { runHighRate(b, "portfolio:full", 2048) })
}

// BenchmarkDESPoissonHighRate is the single-heuristic analogue: a
// deterministic policy whose fast path is a pure memo replay, so the
// per-event cost collapses to event-loop bookkeeping.
func BenchmarkDESPoissonHighRate(b *testing.B) {
	b.Run("delta", func(b *testing.B) { runHighRate(b, "DominantMinRatio", 2048) })
	b.Run("full", func(b *testing.B) { runHighRate(b, "DominantMinRatio:full", 2048) })
}
