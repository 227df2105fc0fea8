package sched

import (
	"fmt"
	"testing"

	"repro/internal/model"
	"repro/internal/workload"
)

// Allocation-budget ceilings for one heuristic evaluation on the NPB
// workload. The steady state is 2 allocations (the returned Schedule
// and its assignment slice; LocalSearch adds a handful for its warm
// start and membership snapshot); the ceilings carry slack for pool
// repopulation after a GC so the tests guard against creep, not
// against the collector.
const (
	evalAllocBudget        = 8
	localSearchAllocBudget = 16
)

// TestScheduleAllocBudget pins the hot-path allocation ceiling of every
// extended heuristic: regressions that reintroduce per-evaluation
// buffer allocations fail here long before they show up in benchmark
// trend data.
func TestScheduleAllocBudget(t *testing.T) {
	pl := model.TaihuLight()
	apps := workload.NPB()
	rng := requireRNG(nil)
	for _, h := range ExtendedHeuristics {
		budget := float64(evalAllocBudget)
		if h == LocalSearch {
			budget = localSearchAllocBudget
		}
		t.Run(fmt.Sprint(h), func(t *testing.T) {
			// Warm the scratch pool so the measurement sees steady state.
			if _, err := h.Schedule(pl, apps, rng); err != nil {
				t.Fatal(err)
			}
			n := testing.AllocsPerRun(100, func() {
				if _, err := h.Schedule(pl, apps, rng); err != nil {
					t.Fatal(err)
				}
			})
			if n > budget {
				t.Errorf("%v.Schedule allocates %g times per evaluation, budget %g", h, n, budget)
			}
		})
	}
}

// TestEqualizerAllocBudget pins the scratch-backed equalizer itself: a
// pooled scratch must equalize with no allocations at all once its
// buffers are grown.
func TestEqualizerAllocBudget(t *testing.T) {
	pl := model.TaihuLight()
	apps := workload.NPB()
	for i := range apps {
		apps[i].SeqFraction = 0.05 // exercise the bisection path, not Lemma 2
	}
	shares := make([]float64, len(apps))
	for i := range shares {
		shares[i] = 1 / float64(len(apps))
	}
	d := dOf(pl, apps)
	var eq equalizer
	if _, _, err := eq.equalize(pl, apps, d, shares); err != nil {
		t.Fatal(err) // grow buffers and materialize the objective closure
	}
	n := testing.AllocsPerRun(100, func() {
		if _, _, err := eq.equalize(pl, apps, d, shares); err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Errorf("warm equalizer allocates %g times per call, want 0", n)
	}
}
