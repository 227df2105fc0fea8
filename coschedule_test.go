package repro

import (
	"context"
	"math"
	"testing"

	"repro/internal/cat"
	"repro/internal/workload"
)

func TestFacadeQuickstartFlow(t *testing.T) {
	pl := TaihuLight()
	apps := NPB()
	// Co-scheduling wins once applications have any sequential fraction
	// (Fig. 6); perfectly parallel apps tie with AllProcCache by Lemma 3.
	for i := range apps {
		apps[i].SeqFraction = 0.05
	}
	s, err := DominantMinRatio.Schedule(pl, apps, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(pl, apps); err != nil {
		t.Fatal(err)
	}
	apc, err := AllProcCache.Schedule(pl, apps, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Makespan >= apc.Makespan {
		t.Fatalf("co-scheduling did not beat sequential execution: %v vs %v", s.Makespan, apc.Makespan)
	}
}

func TestFacadePortfolio(t *testing.T) {
	pl := TaihuLight()
	apps := NPB()
	for i := range apps {
		apps[i].SeqFraction = 0.05
	}
	c := NewClient(WithWorkers(2), WithSeed(42))
	ctx := context.Background()
	best, rep, err := c.Best(ctx, pl, apps)
	if err != nil {
		t.Fatal(err)
	}
	if err := best.Validate(pl, apps); err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != len(Heuristics)+2 {
		t.Fatalf("%d results, want the ten policies plus two extensions", len(rep.Results))
	}
	for _, r := range rep.Results {
		if r.Err != nil {
			t.Fatalf("%v failed: %v", r.Heuristic, r.Err)
		}
		if best.Makespan > r.Schedule.Makespan {
			t.Fatalf("best %v worse than %v's %v", best.Makespan, r.Heuristic, r.Schedule.Makespan)
		}
	}

	// A long-lived client memoizes: repeating the same scenario is
	// served from cache.
	_, rep2, err := c.Best(ctx, pl, apps)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep2.Results {
		if !r.FromCache {
			t.Fatalf("%v recomputed on identical scenario", r.Heuristic)
		}
	}
	if st := c.Engine().CacheStats(); st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("unexpected cache stats %+v", st)
	}
}

func TestFacadeParseHeuristic(t *testing.T) {
	h, err := ParseHeuristic("DominantRevMaxRatio")
	if err != nil || h != DominantRevMaxRatio {
		t.Fatalf("parse: %v %v", h, err)
	}
	if len(Heuristics) != 10 {
		t.Fatalf("expected 10 heuristics, have %d", len(Heuristics))
	}
}

func TestFacadeExactSchedule(t *testing.T) {
	pl := TaihuLight()
	apps := NPB()
	exact, err := ExactSchedule(pl, apps)
	if err != nil {
		t.Fatal(err)
	}
	dmr, err := DominantMinRatio.Schedule(pl, apps, nil)
	if err != nil {
		t.Fatal(err)
	}
	if dmr.Makespan < exact.Makespan*(1-1e-9) {
		t.Fatalf("heuristic beat the exact optimum: %v < %v", dmr.Makespan, exact.Makespan)
	}
	if dmr.Makespan > exact.Makespan*1.01 {
		t.Fatalf("heuristic 1%% off the optimum on NPB: %v vs %v", dmr.Makespan, exact.Makespan)
	}
}

// Integration: schedule → CAT realization → re-evaluate the schedule with
// the rounded shares → the makespan degradation from way rounding is
// bounded.
func TestScheduleToCATRoundTrip(t *testing.T) {
	pl := TaihuLight()
	apps := NPB()
	s, err := DominantMinRatio.Schedule(pl, apps, nil)
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := CATPartition(s, 20)
	if err != nil {
		t.Fatal(err)
	}
	for i := range apps {
		if s.Assignments[i].CacheShare > 0 && alloc.WayCounts[i] == 0 {
			t.Fatalf("app %d lost its cache in CAT rounding", i)
		}
		if alloc.WayCounts[i] > 0 && !cat.Contiguous(alloc.Masks[i]) {
			t.Fatalf("app %d mask not contiguous", i)
		}
	}
	if cat.Overlap(alloc.Masks) {
		t.Fatal("CAT masks overlap")
	}
	// Re-evaluate execution times with the realized fractions: the
	// worst-case slowdown from rounding on 20 ways stays modest.
	var worst float64
	for i, a := range apps {
		ideal := a.Exe(pl, s.Assignments[i].Processors, s.Assignments[i].CacheShare)
		real := a.Exe(pl, s.Assignments[i].Processors, alloc.Fractions[i])
		worst = math.Max(worst, real/ideal)
	}
	if worst > 1.25 {
		t.Fatalf("CAT rounding cost %v× slowdown", worst)
	}
}

// Integration: schedule → discrete-event simulation cross-check through
// the facade.
func TestScheduleToSimulation(t *testing.T) {
	pl := TaihuLight()
	apps := NPB()
	for i := range apps {
		apps[i].SeqFraction = 0.05
	}
	s, err := DominantRevMaxRatio.Schedule(pl, apps, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(pl, apps, s)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Makespan-s.Makespan) > 1e-6*s.Makespan {
		t.Fatalf("simulation disagrees with model: %v vs %v", res.Makespan, s.Makespan)
	}
	rd, err := SimulateRedistribute(pl, apps, s)
	if err != nil {
		t.Fatal(err)
	}
	if rd.Makespan > res.Makespan*(1+1e-9) {
		t.Fatal("redistribution made things worse")
	}
}

// Integration: generated workloads schedule cleanly at every scale the
// paper sweeps.
func TestWorkloadScalesEndToEnd(t *testing.T) {
	pl := TaihuLight()
	for _, n := range []int{1, 7, 64, 256} {
		apps, err := workload.Generate(workload.Config{Generator: workload.GenRandom, N: n}, NewRNG(uint64(n)))
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range []Heuristic{DominantMinRatio, Fair, ZeroCache, RandomPart} {
			s, err := h.Schedule(pl, apps, NewRNG(1))
			if err != nil {
				t.Fatalf("n=%d %v: %v", n, h, err)
			}
			if err := s.Validate(pl, apps); err != nil {
				t.Fatalf("n=%d %v: %v", n, h, err)
			}
		}
	}
}

// TestFacadeConstructorErrorsReturnNil: a constructor that fails returns
// a nil interface beside its error, never one holding a nil pointer, so
// a caller may test the result against nil.
func TestFacadeConstructorErrorsReturnNil(t *testing.T) {
	factory, err := CycleJobs(NPB())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		build func() (any, error)
	}{
		{"PoissonArrivals", func() (any, error) { return PoissonArrivals(-1, 3, nil, nil) }},
		{"InhomogeneousPoissonArrivals", func() (any, error) { return InhomogeneousPoissonArrivals(nil, 1, 3, factory, nil) }},
		{"GammaBurstArrivals", func() (any, error) { return GammaBurstArrivals(0, 1, 1, 3, factory, nil) }},
		{"BatchArrivals", func() (any, error) { return BatchArrivals(-1, 1, 3, factory) }},
		{"ReplayArrivals", func() (any, error) { return ReplayArrivals(nil) }},
		{"HeuristicRepartition", func() (any, error) { return HeuristicRepartition(AllProcCache, 0) }},
		{"NoRepartitionPolicy", func() (any, error) { return NoRepartitionPolicy(AllProcCache, 0) }},
	} {
		v, err := tc.build()
		if err == nil {
			t.Errorf("%s accepted an invalid argument", tc.name)
		}
		if v != nil {
			t.Errorf("%s returned %#v beside its error, want nil", tc.name, v)
		}
	}
}
