package sched_test

import (
	"testing"

	"repro/internal/genscen"
	"repro/internal/sched"
	"repro/internal/solve"
)

// heuristicBenchSeed picks the fixed AmdahlMix scenario of
// BenchmarkHeuristic.
const heuristicBenchSeed = 11

// BenchmarkHeuristic times one Schedule call of every extended heuristic
// on one fixed genscen AmdahlMix scenario of 8 applications. Its α is
// not 0.5, so math.Pow takes its general path, as it does on the
// service's traffic (α = 0.5 lets Pow answer x^α with Sqrt). The
// scenario's sequential fractions are non-zero, so every equalizer call
// bisects.
func BenchmarkHeuristic(b *testing.B) {
	in, err := genscen.Generate(genscen.AmdahlMix, heuristicBenchSeed, genscen.Config{MinApps: 8, MaxApps: 8})
	if err != nil {
		b.Fatal(err)
	}
	if in.Platform.Alpha == 0.5 {
		b.Fatalf("scenario α = 0.5, want the general math.Pow path")
	}
	for _, h := range sched.ExtendedHeuristics {
		b.Run(h.String(), func(b *testing.B) {
			rng := solve.NewRNG(heuristicBenchSeed)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := h.Schedule(in.Platform, in.Apps, rng); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
