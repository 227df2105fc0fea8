package portfolio

import (
	"context"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/workload"
)

// TestMetricsDoNotPerturbResults races the same scenarios with metrics
// off and on (serial and parallel) and requires bit-identical reports —
// the non-perturbation contract the conform goldens gate end to end.
func TestMetricsDoNotPerturbResults(t *testing.T) {
	scenarios := []Scenario{
		{Platform: model.TaihuLight(), Apps: workload.NPB(), Seed: 42},
		{Platform: model.TaihuLight(), Apps: workload.NPB()[:4], Seed: 7},
	}
	plain := New(Config{Workers: 1}).EvaluateBatch(append([]Scenario(nil), scenarios...))
	for _, workers := range []int{1, 8} {
		reg := obs.NewRegistry()
		eng := New(Config{Workers: workers, Metrics: NewMetrics(reg)})
		got := eng.EvaluateBatch(append([]Scenario(nil), scenarios...))
		for si := range plain {
			if plain[si].Best != got[si].Best {
				t.Errorf("workers=%d scenario %d: Best %d != %d", workers, si, got[si].Best, plain[si].Best)
			}
			for hi := range plain[si].Results {
				a, b := plain[si].Results[hi], got[si].Results[hi]
				if (a.Schedule == nil) != (b.Schedule == nil) {
					t.Fatalf("workers=%d scenario %d heuristic %d: schedule presence differs", workers, si, hi)
				}
				if a.Schedule != nil && a.Schedule.Makespan != b.Schedule.Makespan {
					t.Errorf("workers=%d scenario %d heuristic %d: makespan %v != %v",
						workers, si, hi, b.Schedule.Makespan, a.Schedule.Makespan)
				}
			}
		}
	}
}

// TestMetricsCounts checks the bookkeeping invariants: evals = scenarios
// × heuristics, queue depth returns to zero, one win per feasible
// scenario, and the cache func metrics surface hits after a warm run.
func TestMetricsCounts(t *testing.T) {
	reg := obs.NewRegistry()
	cache := NewCache()
	eng := New(Config{Workers: 4, Cache: cache, Metrics: NewMetrics(reg)})
	scenarios := []Scenario{
		{Platform: model.TaihuLight(), Apps: workload.NPB(), Seed: 1},
		{Platform: model.TaihuLight(), Apps: workload.NPB(), Seed: 1}, // dup: warms the memo
	}
	reports := eng.EvaluateBatch(scenarios)

	wantEvals := uint64(2 * len(sched.ExtendedHeuristics))
	byName := map[string]float64{}
	var wins float64
	for _, s := range reg.Snapshot() {
		if s.Name == "portfolio_wins_total" {
			wins += s.Value
			continue
		}
		byName[s.Name] = s.Value
	}
	if got := byName["portfolio_evals_total"]; got != float64(wantEvals) {
		t.Errorf("portfolio_evals_total = %v, want %d", got, wantEvals)
	}
	if got := byName["portfolio_scenarios_total"]; got != 2 {
		t.Errorf("portfolio_scenarios_total = %v, want 2", got)
	}
	if got := byName["portfolio_batches_total"]; got != 1 {
		t.Errorf("portfolio_batches_total = %v, want 1", got)
	}
	if got := byName["portfolio_queue_depth"]; got != 0 {
		t.Errorf("portfolio_queue_depth = %v after batch, want 0", got)
	}
	if got := byName["portfolio_race_seconds"]; got != 1 {
		t.Errorf("portfolio_race_seconds count = %v, want 1", got)
	}
	if got := byName["portfolio_eval_seconds"]; got != float64(wantEvals) {
		t.Errorf("portfolio_eval_seconds count = %v, want %d", got, wantEvals)
	}
	feasible := 0
	for _, rep := range reports {
		if rep.Best >= 0 {
			feasible++
		}
	}
	if wins != float64(feasible) {
		t.Errorf("portfolio_wins_total sum = %v, want %d", wins, feasible)
	}
	if byName["portfolio_cache_hits_total"] == 0 {
		t.Error("portfolio_cache_hits_total = 0 after a duplicated scenario")
	}
	if byName["portfolio_cache_misses_total"] == 0 {
		t.Error("portfolio_cache_misses_total = 0")
	}
	if v, ok := byName["portfolio_cache_capacity_evictions_total"]; !ok || v != 0 {
		t.Errorf("portfolio_cache_capacity_evictions_total = %v (exported %v), want 0 below the budget", v, ok)
	}

	var sb strings.Builder
	if err := reg.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	if errs := obs.LintProm(strings.NewReader(sb.String())); len(errs) != 0 {
		t.Errorf("portfolio exposition fails lint: %v", errs)
	}
}

// TestQueueDepthZeroAfterCancel verifies the admission gauge also
// drains through the cancellation back-fill path.
func TestQueueDepthZeroAfterCancel(t *testing.T) {
	reg := obs.NewRegistry()
	eng := New(Config{Workers: 2, Metrics: NewMetrics(reg)})
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // every task lands in the back-fill pass
	if _, err := eng.EvaluateBatchContext(ctx, []Scenario{
		{Platform: model.TaihuLight(), Apps: workload.NPB(), Seed: 3},
	}); err == nil {
		t.Fatal("expected a context error")
	}
	for _, s := range reg.Snapshot() {
		if s.Name == "portfolio_queue_depth" && s.Value != 0 {
			t.Errorf("portfolio_queue_depth = %v after cancelled batch, want 0", s.Value)
		}
	}
}

// TestDisabledMetricsZeroAlloc pins the tentpole's overhead claim: with
// Config.Metrics nil, the warm portfolio sweep allocates exactly what
// it allocated before instrumentation existed — the nil checks add no
// boxing, no closures, no clock reads. CI runs this as the
// disabled-metrics overhead gate.
func TestDisabledMetricsZeroAlloc(t *testing.T) {
	cache := NewCache()
	eng := New(Config{Workers: 1, Cache: cache})
	pl := model.TaihuLight()
	apps := workload.NPB()
	compute := func() (*sched.Schedule, error) {
		return sched.DominantMinRatio.Schedule(pl, apps, nil)
	}
	ctx := context.Background()
	if _, err, _ := cache.getOrCompute(ctx, pl, apps, sched.DominantMinRatio, 0, compute); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(200, func() {
		s, err, fromCache := cache.getOrCompute(ctx, pl, apps, sched.DominantMinRatio, 0, compute)
		if err != nil || s == nil || !fromCache {
			t.Fatal("expected a cache hit")
		}
	})
	if n != 0 {
		t.Errorf("disabled-metrics cache hit allocates %g times, want 0", n)
	}
	if _, err := eng.Evaluate(Scenario{Platform: pl, Apps: apps, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	warm := testing.AllocsPerRun(100, func() {
		rep, err := eng.Evaluate(Scenario{Platform: pl, Apps: apps, Seed: 42})
		if err != nil || rep.Best < 0 {
			t.Fatal("evaluation failed")
		}
	})
	if warm > 16 {
		t.Errorf("disabled-metrics warm Evaluate allocates %g times, budget 16 (same as pre-instrumentation)", warm)
	}
}
