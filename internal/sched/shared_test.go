package sched

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/solve"
)

func TestSharedCacheScheduleFeasible(t *testing.T) {
	pl := refPlatform()
	apps := synthApps(91, 24, 0.06)
	s, err := SharedCache.Schedule(pl, apps, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(pl, apps); err != nil {
		t.Fatal(err)
	}
	// Occupancies sum to 1 (everyone is in the cache, like it or not).
	var sum float64
	for _, a := range s.Assignments {
		sum += a.CacheShare
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("occupancies sum to %v", sum)
	}
}

func TestSharedCacheEqualFinish(t *testing.T) {
	pl := refPlatform()
	apps := synthApps(92, 12, 0.05)
	s, err := SharedCache.Schedule(pl, apps, nil)
	if err != nil {
		t.Fatal(err)
	}
	ft := s.FinishTimes(pl, apps)
	for i, f := range ft {
		if math.Abs(f-s.Makespan) > 1e-6*s.Makespan {
			t.Fatalf("app %d finishes at %v, makespan %v", i, f, s.Makespan)
		}
	}
}

func TestSharedCacheOccupancyTracksPressure(t *testing.T) {
	pl := refPlatform()
	apps := npbApps(0.05)
	s, err := SharedCache.Schedule(pl, apps, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Occupancy ratio equals processor×frequency pressure ratio.
	for i := 1; i < len(apps); i++ {
		pi := s.Assignments[i].Processors * apps[i].AccessFreq
		p0 := s.Assignments[0].Processors * apps[0].AccessFreq
		want := pi / p0
		got := s.Assignments[i].CacheShare / s.Assignments[0].CacheShare
		if math.Abs(got-want) > 1e-6*want {
			t.Fatalf("occupancy ratio %v, pressure ratio %v", got, want)
		}
	}
}

func TestPartitioningGainPositiveUnderContention(t *testing.T) {
	// The classic Cache Allocation Technology motivation: a streaming
	// antagonist with high access pressure but essentially no reuse
	// (d ≈ 0: it never misses regardless of cache) occupies LLC space
	// that cache-sensitive co-runners desperately need. Unpartitioned
	// occupancy follows pressure, not marginal benefit, so sharing
	// wastes the cache on the streamer; partitioning reclaims it.
	pl := refPlatform()
	pl.CacheSize = 2e8
	apps := synthApps(93, 8, 0.05)
	for i := range apps {
		apps[i].RefMissRate = 0.5 // cache-hungry analyses
	}
	for k := 0; k < 3; k++ {
		streamer := apps[k]
		streamer.Name = "streamer"
		streamer.AccessFreq = 0.9
		streamer.RefMissRate = 1e-9 // perfect locality: cache-insensitive
		apps = append(apps, streamer)
	}

	gain, err := PartitioningGain(pl, apps)
	if err != nil {
		t.Fatal(err)
	}
	if gain <= 0.01 {
		t.Fatalf("partitioning gain %v should be clearly positive with streaming antagonists", gain)
	}
}

func TestSharedCacheSingleApp(t *testing.T) {
	pl := refPlatform()
	apps := npbApps(0.05)[:1]
	s, err := SharedCache.Schedule(pl, apps, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Alone, the application occupies the whole cache and machine.
	if math.Abs(s.Assignments[0].CacheShare-1) > 1e-9 {
		t.Fatalf("solo occupancy %v", s.Assignments[0].CacheShare)
	}
	if math.Abs(s.Assignments[0].Processors-pl.Processors) > 1e-6*pl.Processors {
		t.Fatalf("solo processors %v", s.Assignments[0].Processors)
	}
}

func TestSharedCacheRejectsInvalid(t *testing.T) {
	pl := refPlatform()
	if _, err := SharedCache.Schedule(pl, nil, nil); err == nil {
		t.Fatal("empty set accepted")
	}
}

// Property: the fixed point is stable — rescheduling the same instance
// reproduces the same makespan, and the schedule always validates.
func TestSharedCacheDeterministicProperty(t *testing.T) {
	pl := refPlatform()
	f := func(seed uint64, nPick uint8) bool {
		n := 1 + int(nPick)%32
		apps := synthApps(seed, n, 0.05)
		a, err := SharedCache.Schedule(pl, apps, nil)
		if err != nil {
			return false
		}
		b, err := SharedCache.Schedule(pl, apps, nil)
		if err != nil {
			return false
		}
		return a.Makespan == b.Makespan && a.Validate(pl, apps) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// The headline comparison: on the reference platform with the paper's
// workloads, partitioned DMR is never worse than unpartitioned sharing.
func TestPartitionedNeverWorseThanShared(t *testing.T) {
	pl := refPlatform()
	for seed := uint64(0); seed < 8; seed++ {
		apps := synthApps(seed, 32, 0.05)
		dmr, err := DominantMinRatio.Schedule(pl, apps, solve.NewRNG(seed))
		if err != nil {
			t.Fatal(err)
		}
		sh, err := SharedCache.Schedule(pl, apps, nil)
		if err != nil {
			t.Fatal(err)
		}
		if dmr.Makespan > sh.Makespan*(1+1e-6) {
			t.Fatalf("seed %d: partitioned (%v) worse than shared (%v)", seed, dmr.Makespan, sh.Makespan)
		}
	}
}
