package portfolio

import (
	"context"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/solve"
	"repro/internal/workload"
)

// testScenarios builds a varied set of scenarios: the paper's NPB
// workload plus randomized fleets across platform shapes and sizes.
func testScenarios(t testing.TB, n int) []Scenario {
	t.Helper()
	master := solve.NewRNG(0xC0FFEE)
	out := make([]Scenario, 0, n)
	out = append(out, Scenario{Platform: model.TaihuLight(), Apps: workload.NPB(), Seed: 1})
	gens := []workload.Generator{workload.GenNPBSynth, workload.GenRandom, workload.GenNPB6}
	sizes := []int{2, 6, 16, 48}
	for len(out) < n {
		i := len(out)
		pl := model.TaihuLight()
		pl.Processors = float64(16 * (int(1) << (i % 5)))
		if i%3 == 1 {
			pl.CacheSize = 1e9 // tight cache: heuristics actually disagree
		}
		seed := master.Uint64()
		apps, err := workload.Generate(workload.Config{
			Generator: gens[i%len(gens)], N: sizes[i%len(sizes)],
		}, solve.NewRNG(seed))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, Scenario{Platform: pl, Apps: apps, Seed: seed})
	}
	return out
}

// TestPortfolioProperties checks the engine's core contract on a varied
// scenario set: the winner is never worse than any individual heuristic,
// every returned schedule passes validation, and the report covers the
// full heuristic set in order.
func TestPortfolioProperties(t *testing.T) {
	eng := New(Config{Workers: 8, Cache: NewCache()})
	scenarios := testScenarios(t, 12)
	reports := eng.EvaluateBatch(scenarios)
	for si, rep := range reports {
		if rep.Err != nil {
			t.Fatalf("scenario %d: %v", si, rep.Err)
		}
		if len(rep.Results) != len(sched.ExtendedHeuristics) {
			t.Fatalf("scenario %d: %d results for %d heuristics", si, len(rep.Results), len(sched.ExtendedHeuristics))
		}
		best := rep.BestResult()
		if best == nil {
			t.Fatalf("scenario %d: no feasible schedule", si)
		}
		for hi, res := range rep.Results {
			if res.Heuristic != sched.ExtendedHeuristics[hi] {
				t.Fatalf("scenario %d: result %d is %v, want %v", si, hi, res.Heuristic, sched.ExtendedHeuristics[hi])
			}
			if res.Err != nil {
				t.Fatalf("scenario %d: %v failed: %v", si, res.Heuristic, res.Err)
			}
			if err := res.Schedule.Validate(scenarios[si].Platform, scenarios[si].Apps); err != nil {
				t.Errorf("scenario %d: %v schedule invalid: %v", si, res.Heuristic, err)
			}
			if best.Schedule.Makespan > res.Schedule.Makespan {
				t.Errorf("scenario %d: best makespan %v worse than %v's %v",
					si, best.Schedule.Makespan, res.Heuristic, res.Schedule.Makespan)
			}
		}
	}
}

// TestConcurrentMatchesSerial checks determinism bit-for-bit: a
// single-worker engine and a wide engine produce identical schedules
// for identical scenarios, regardless of cache configuration.
func TestConcurrentMatchesSerial(t *testing.T) {
	scenarios := testScenarios(t, 10)
	serial := New(Config{Workers: 1}).EvaluateBatch(scenarios)
	for _, cache := range []*Cache{nil, NewCache()} {
		requireSameReports(t, serial, New(Config{Workers: 16, Cache: cache}).EvaluateBatch(scenarios))
	}
}

// requireSameReports fails t unless got matches want bit-for-bit:
// winners, makespans and every assignment.
func requireSameReports(t *testing.T, want, got []*Report) {
	t.Helper()
	for si := range want {
		a, b := want[si], got[si]
		if a.Best != b.Best {
			t.Fatalf("scenario %d: best %d (serial) vs %d (concurrent)", si, a.Best, b.Best)
		}
		for hi := range a.Results {
			sa, sb := a.Results[hi].Schedule, b.Results[hi].Schedule
			if sa.Makespan != sb.Makespan || sa.Sequential != sb.Sequential {
				t.Fatalf("scenario %d %v: makespan %v (serial) vs %v (concurrent)",
					si, a.Results[hi].Heuristic, sa.Makespan, sb.Makespan)
			}
			for i := range sa.Assignments {
				if sa.Assignments[i] != sb.Assignments[i] {
					t.Fatalf("scenario %d %v app %d: %+v vs %+v",
						si, a.Results[hi].Heuristic, i, sa.Assignments[i], sb.Assignments[i])
				}
			}
		}
	}
}

// TestEvaluateBatchOneScenarioRacesOnCaller pins the dispatch rule: a
// one-scenario call races on its caller and starts no goroutine, even
// when the engine is busy. The test holds every semaphore slot, so each
// of its concurrent calls blocks in its first evaluation; the goroutine
// count then rises only by the calls themselves. A call that fanned its
// heuristics out would add up to Workers blocked goroutines apiece.
func TestEvaluateBatchOneScenarioRacesOnCaller(t *testing.T) {
	const workers, calls, slack = 4, 16, 4
	eng := New(Config{Workers: workers})
	for range workers {
		eng.sem <- struct{}{}
	}
	base := settledGoroutines(t, 0)
	scenarios := make([]Scenario, calls)
	for i := range scenarios {
		scenarios[i] = npbScenario(uint64(i))
	}
	reports := make([]*Report, calls)
	var wg sync.WaitGroup
	for i := range scenarios {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if reports[i], err = eng.EvaluateContext(context.Background(), scenarios[i]); err != nil {
				t.Error(err)
			}
		}()
	}
	if n := settledGoroutines(t, base+calls); n > base+calls+slack {
		t.Errorf("%d blocked one-scenario calls raised the goroutine count by %d, want at most %d",
			calls, n-base, calls+slack)
	}
	for range workers {
		<-eng.sem
	}
	wg.Wait()
	requireSameReports(t, New(Config{Workers: 1}).EvaluateBatch(scenarios), reports)
}

// settledGoroutines waits until at least atLeast goroutines exist and the
// count has held still for a while, then returns it.
func settledGoroutines(t *testing.T, atLeast int) int {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	n, still := runtime.NumGoroutine(), 0
	for still < 50 || n < atLeast {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine count did not settle at or above %d (now %d)", atLeast, n)
		}
		time.Sleep(time.Millisecond)
		cur := runtime.NumGoroutine()
		if cur == n {
			still++
		} else {
			n, still = cur, 0
		}
	}
	return n
}

// TestEvaluateMatchesDirectSchedule pins the engine's RNG substream
// rule: heuristic i must see exactly the stream seed^(i+1)·stride the
// serial experiment loops always used.
func TestEvaluateMatchesDirectSchedule(t *testing.T) {
	pl := model.TaihuLight()
	apps, err := workload.Generate(workload.Config{Generator: workload.GenNPBSynth, N: 12}, solve.NewRNG(99))
	if err != nil {
		t.Fatal(err)
	}
	const seed = 0xABCDE
	rep, err := New(Config{Workers: 4}).Evaluate(Scenario{Platform: pl, Apps: apps, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	for hi, h := range sched.ExtendedHeuristics {
		rng := solve.NewRNG(solve.Substream(seed, uint64(hi+1)))
		want, err := h.Schedule(pl, apps, rng)
		if err != nil {
			t.Fatal(err)
		}
		if got := rep.Results[hi].Schedule.Makespan; got != want.Makespan {
			t.Errorf("%v: portfolio makespan %v, direct %v", h, got, want.Makespan)
		}
	}
}

// TestInvalidScenario checks that scenario-level validation failures are
// reported per scenario without poisoning the batch.
func TestInvalidScenario(t *testing.T) {
	good := Scenario{Platform: model.TaihuLight(), Apps: workload.NPB(), Seed: 3}
	bad := Scenario{Platform: model.Platform{}, Apps: workload.NPB()}
	empty := Scenario{Platform: model.TaihuLight()}
	reports := New(Config{}).EvaluateBatch([]Scenario{good, bad, empty})
	if reports[0].Err != nil || reports[0].BestResult() == nil {
		t.Fatalf("good scenario failed: %v", reports[0].Err)
	}
	for i, rep := range reports[1:] {
		if rep.Err == nil {
			t.Fatalf("invalid scenario %d accepted", i+1)
		}
		if rep.BestResult() != nil || rep.BestSchedule() != nil {
			t.Fatalf("invalid scenario %d has a best result", i+1)
		}
	}
	if _, err := New(Config{}).Evaluate(bad); err == nil {
		t.Fatal("Evaluate accepted an invalid scenario")
	}
}

// TestBestTieBreak pins deterministic tie-breaking: with a restricted
// heuristic list containing the same policy twice, the earlier index
// must win.
func TestBestTieBreak(t *testing.T) {
	sc := Scenario{
		Platform:   model.TaihuLight(),
		Apps:       workload.NPB(),
		Heuristics: []sched.Heuristic{sched.ZeroCache, sched.ZeroCache},
		Seed:       1,
	}
	rep, err := New(Config{Workers: 4}).Evaluate(sc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Best != 0 {
		t.Fatalf("tie broken toward index %d, want 0", rep.Best)
	}
}

// TestRestrictedHeuristics checks that an explicit heuristic list is
// honored in order.
func TestRestrictedHeuristics(t *testing.T) {
	hs := []sched.Heuristic{sched.Fair, sched.DominantMinRatio}
	rep, err := New(Config{}).Evaluate(Scenario{
		Platform: model.TaihuLight(), Apps: workload.NPB(), Heuristics: hs, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 2 || rep.Results[0].Heuristic != sched.Fair || rep.Results[1].Heuristic != sched.DominantMinRatio {
		t.Fatalf("unexpected results: %+v", rep.Results)
	}
	if rep.BestResult().Heuristic != sched.DominantMinRatio {
		t.Fatalf("best is %v, want DominantMinRatio", rep.BestResult().Heuristic)
	}
}

// TestCacheMemoization checks hit/miss accounting, the FromCache flag,
// and that deterministic heuristics hit across different seeds while
// randomized ones do not.
func TestCacheMemoization(t *testing.T) {
	cache := NewCache()
	eng := New(Config{Workers: 4, Cache: cache})
	sc := Scenario{Platform: model.TaihuLight(), Apps: workload.NPB(), Seed: 11}

	rep1, err := eng.Evaluate(sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep1.Results {
		if r.FromCache {
			t.Fatalf("%v served from cache on first evaluation", r.Heuristic)
		}
	}
	st := cache.Stats()
	if st.Misses != uint64(len(rep1.Results)) || st.Hits != 0 {
		t.Fatalf("after first run: %+v", st)
	}

	rep2, err := eng.Evaluate(sc)
	if err != nil {
		t.Fatal(err)
	}
	for hi, r := range rep2.Results {
		if !r.FromCache {
			t.Fatalf("%v not served from cache on identical rerun", r.Heuristic)
		}
		if r.Schedule != rep1.Results[hi].Schedule {
			t.Fatalf("%v: cache returned a different schedule pointer", r.Heuristic)
		}
	}

	// A different seed changes only the randomized heuristics' keys.
	sc.Seed = 12
	rep3, err := eng.Evaluate(sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep3.Results {
		if r.Heuristic.Randomized() == r.FromCache {
			t.Errorf("%v (randomized=%v) fromCache=%v after seed change",
				r.Heuristic, r.Heuristic.Randomized(), r.FromCache)
		}
	}
	st = cache.Stats()
	if st.Hits+st.Misses != 3*uint64(len(rep1.Results)) {
		t.Fatalf("hits+misses = %d, want %d", st.Hits+st.Misses, 3*len(rep1.Results))
	}
}

// TestScenarioKeyDistinguishes checks that every field of the scenario
// reaches the canonical key.
func TestScenarioKeyDistinguishes(t *testing.T) {
	pl := model.TaihuLight()
	apps := workload.NPB()
	base := scenarioKey(pl, apps, sched.DominantMinRatio, 1)

	mutations := []func() string{
		func() string { p := pl; p.Processors++; return scenarioKey(p, apps, sched.DominantMinRatio, 1) },
		func() string { p := pl; p.CacheSize++; return scenarioKey(p, apps, sched.DominantMinRatio, 1) },
		func() string { p := pl; p.LatencyS += 0.1; return scenarioKey(p, apps, sched.DominantMinRatio, 1) },
		func() string { p := pl; p.LatencyL += 0.1; return scenarioKey(p, apps, sched.DominantMinRatio, 1) },
		func() string { p := pl; p.Alpha += 0.1; return scenarioKey(p, apps, sched.DominantMinRatio, 1) },
		func() string { return scenarioKey(pl, apps[:5], sched.DominantMinRatio, 1) },
		func() string { return scenarioKey(pl, apps, sched.Fair, 1) },
		func() string {
			mod := append([]model.Application{}, apps...)
			mod[0].Work *= 2
			return scenarioKey(pl, mod, sched.DominantMinRatio, 1)
		},
		func() string {
			mod := append([]model.Application{}, apps...)
			mod[0].Name = "XX"
			return scenarioKey(pl, mod, sched.DominantMinRatio, 1)
		},
	}
	for i, m := range mutations {
		if m() == base {
			t.Errorf("mutation %d does not change the scenario key", i)
		}
	}
	// Seed must NOT differentiate deterministic heuristics, and must
	// differentiate randomized ones.
	if scenarioKey(pl, apps, sched.DominantMinRatio, 2) != base {
		t.Error("seed leaked into a deterministic heuristic's key")
	}
	if scenarioKey(pl, apps, sched.RandomPart, 1) == scenarioKey(pl, apps, sched.RandomPart, 2) {
		t.Error("seed missing from a randomized heuristic's key")
	}
}

// TestWorkersDefault checks pool sizing.
func TestWorkersDefault(t *testing.T) {
	if w := New(Config{}).Workers(); w < 1 {
		t.Fatalf("default worker count %d", w)
	}
	if w := New(Config{Workers: 3}).Workers(); w != 3 {
		t.Fatalf("worker count %d, want 3", w)
	}
	if New(Config{}).CacheStats() != (CacheStats{}) {
		t.Fatal("cacheless engine reports cache stats")
	}
}

// TestNaNMakespanNeverBest guards best-selection against NaN poisoning:
// a NaN makespan must not be selected over a finite one.
func TestNaNMakespanNeverBest(t *testing.T) {
	r := Report{Results: []Result{
		{Heuristic: sched.Fair, Schedule: &sched.Schedule{Makespan: math.NaN()}},
		{Heuristic: sched.ZeroCache, Schedule: &sched.Schedule{Makespan: 1}},
	}}
	r.pickBest()
	if r.Best != 1 {
		t.Fatalf("best = %d, want 1 (the finite makespan)", r.Best)
	}
}
