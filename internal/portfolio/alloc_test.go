package portfolio

import (
	"context"
	"testing"

	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/workload"
)

// TestCacheHitAllocFree pins the memoization fast path at zero
// allocations: the scenario key is encoded into a pooled buffer and
// probed with a map lookup the compiler keeps allocation-free, so
// re-serving a solved (scenario, heuristic) pair costs no garbage.
func TestCacheHitAllocFree(t *testing.T) {
	pl := model.TaihuLight()
	apps := workload.NPB()
	cache := NewCache()
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
		t.Errorf("memoized hit allocates %g times, want 0", n)
	}
}

// TestMemoizedEvaluateAllocBudget pins the full engine round trip for a
// warm scenario: one Report with per-heuristic results costs a handful
// of allocations (report/result structures and the scenario slice), and
// nothing per heuristic. Budget 16 leaves slack for pool repopulation
// after GC; the steady state is ~8.
func TestMemoizedEvaluateAllocBudget(t *testing.T) {
	eng := New(Config{Workers: 1, Cache: NewCache()})
	s := Scenario{Platform: model.TaihuLight(), Apps: workload.NPB(), Seed: 42}
	if _, err := eng.Evaluate(s); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(100, func() {
		rep, err := eng.Evaluate(s)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Best < 0 {
			t.Fatal("no feasible schedule")
		}
	})
	if n > 16 {
		t.Errorf("memoized Evaluate allocates %g times, budget 16", n)
	}
}

// TestCacheBoundMissAllocs pins eviction at zero allocations: a miss
// into a full shard, which runs the CLOCK hand, allocates no more than
// a miss into an empty shard, which grows the shard's ring and map.
func TestCacheBoundMissAllocs(t *testing.T) {
	const runs = numShards - 1 // AllocsPerRun calls f runs+1 times
	apps := workload.NPB()
	ctx := context.Background()
	s := &sched.Schedule{}
	compute := func() (*sched.Schedule, error) { return s, nil }
	missAllocs := func(cache *Cache, pls []model.Platform) float64 {
		i := 0
		return testing.AllocsPerRun(runs, func() {
			_, _, fromCache := cache.getOrCompute(ctx, pls[i], apps, sched.Fair, 0, compute)
			if fromCache {
				t.Fatal("expected a miss")
			}
			i++
		})
	}

	// One platform per shard: every call misses into an empty shard.
	var empty []model.Platform
	seen := map[int]bool{}
	for p := 1; len(empty) < numShards; p++ {
		pl := model.TaihuLight()
		pl.Processors = float64(p)
		if sh := shardOf(appendScenarioKey(nil, pl, apps, sched.Fair, 0)); !seen[sh] {
			seen[sh] = true
			empty = append(empty, pl)
		}
	}
	emptyAllocs := missAllocs(NewCache(), empty)

	// One shard filled to its budget first: every call evicts.
	const budget = 4
	pls := shardPlatforms(apps, budget+runs+1)
	cache := newCache(budget)
	for _, pl := range pls[:budget] {
		cache.getOrCompute(ctx, pl, apps, sched.Fair, 0, compute)
	}
	fullAllocs := missAllocs(cache, pls[budget:])
	if st := cache.Stats(); st.CapacityEvictions != runs+1 {
		t.Fatalf("%d capacity evictions, want %d", st.CapacityEvictions, runs+1)
	}
	if fullAllocs > emptyAllocs {
		t.Errorf("a miss into a full shard allocates %g times, into an empty shard %g", fullAllocs, emptyAllocs)
	}
	t.Logf("allocs per miss: empty shard %g, full shard %g", emptyAllocs, fullAllocs)
}
