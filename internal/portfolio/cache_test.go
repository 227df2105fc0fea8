package portfolio

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/solve"
	"repro/internal/workload"
)

// TestCacheStressConcurrent hammers one shared cache from many
// goroutines mixing repeated and fresh scenarios, so `go test -race`
// exercises the striped locks, the per-entry sync.Once collapse and the
// atomic counters under real contention. Beyond being race-clean, the
// accounting must balance: hits+misses equals total requests, and every
// distinct key is computed exactly once.
func TestCacheStressConcurrent(t *testing.T) {
	cache := NewCache()
	st, keys := stressCache(t, cache, 4)
	if st.CapacityEvictions != 0 {
		t.Fatalf("%d capacity evictions below the budget", st.CapacityEvictions)
	}
	if st.Entries != keys {
		t.Fatalf("cache holds %d entries, want %d", st.Entries, keys)
	}
	if st.Misses != uint64(st.Entries) {
		t.Fatalf("%d misses for %d entries: some key was computed twice", st.Misses, st.Entries)
	}
}

// TestCacheBoundStressConcurrent runs the same mix at one entry per
// shard, so the CLOCK hand evicts under contention. Four scenarios
// give 16 keys on 15 shards, too few to fill them, so the mix is
// widened to 32 scenarios (128 keys). Every answer must still match
// the uncached engine, and every miss must be either a live entry or
// a capacity eviction.
func TestCacheBoundStressConcurrent(t *testing.T) {
	st, _ := stressCache(t, newCache(1), 32)
	if st.CapacityEvictions == 0 {
		t.Fatal("no capacity evictions at one entry per shard")
	}
	if st.Misses != uint64(st.Entries)+st.CapacityEvictions {
		t.Fatalf("%d misses != %d entries + %d capacity evictions", st.Misses, st.Entries, st.CapacityEvictions)
	}
}

// stressCache hammers cache from many goroutines through an engine
// racing n scenarios on cheap heuristics, checks every makespan
// against an uncached engine and the hit/miss accounting, and returns
// the cache's counters with the number of distinct keys.
func stressCache(t *testing.T, cache *Cache, n int) (CacheStats, int) {
	t.Helper()
	const (
		goroutines = 32
		iterations = 40
	)
	eng := New(Config{Workers: runtime.GOMAXPROCS(0), Cache: cache})

	// A small pool of scenarios so goroutines collide on the same keys;
	// every scenario restricted to cheap heuristics to keep the test
	// fast under -race.
	hs := []sched.Heuristic{sched.DominantMinRatio, sched.Fair, sched.ZeroCache, sched.RandomPart}
	base := testScenarios(t, n)
	for i := range base {
		base[i].Heuristics = hs
	}

	want := make(map[int][]float64, len(base))
	for i, sc := range base {
		rep, err := New(Config{Workers: 1}).Evaluate(sc)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rep.Results {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
			want[i] = append(want[i], r.Schedule.Makespan)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := solve.NewRNG(uint64(g))
			for it := 0; it < iterations; it++ {
				si := rng.Intn(len(base))
				rep, err := eng.Evaluate(base[si])
				if err != nil {
					errs <- err
					return
				}
				for hi, r := range rep.Results {
					if r.Err != nil {
						errs <- r.Err
						return
					}
					if r.Schedule.Makespan != want[si][hi] {
						t.Errorf("scenario %d %v: makespan %v, want %v",
							si, r.Heuristic, r.Schedule.Makespan, want[si][hi])
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := cache.Stats()
	total := uint64(goroutines * iterations * len(hs))
	if st.Hits+st.Misses != total {
		t.Fatalf("hits(%d)+misses(%d) = %d, want %d requests", st.Hits, st.Misses, st.Hits+st.Misses, total)
	}
	// Distinct keys: deterministic heuristics are seed-independent, so
	// each scenario contributes 3 deterministic entries plus one seeded
	// RandomPart entry.
	return st, len(base) * len(hs)
}

// TestCacheSharedBetweenEngines checks that two engines with the same
// cache share memoized schedules.
func TestCacheSharedBetweenEngines(t *testing.T) {
	cache := NewCache()
	sc := Scenario{Platform: model.TaihuLight(), Apps: workload.NPB(), Seed: 21}
	if _, err := New(Config{Workers: 2, Cache: cache}).Evaluate(sc); err != nil {
		t.Fatal(err)
	}
	rep, err := New(Config{Workers: 2, Cache: cache}).Evaluate(sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Results {
		if !r.FromCache {
			t.Fatalf("%v recomputed despite shared cache", r.Heuristic)
		}
	}
}

// TestCacheShardSpread sanity-checks the FNV shard fold: distinct keys
// must not all collapse onto one shard.
func TestCacheShardSpread(t *testing.T) {
	apps := workload.NPB()
	pl := model.TaihuLight()
	shards := map[int]bool{}
	for i := 0; i < 64; i++ {
		p := pl
		p.Processors = float64(i + 1)
		shards[shardOf(appendScenarioKey(nil, p, apps, sched.Fair, 0))] = true
	}
	if len(shards) < 8 {
		t.Fatalf("64 distinct keys landed on only %d shards", len(shards))
	}
}

// shardPlatforms returns n platforms whose Fair keys on apps all land
// in one shard, so a test can fill that shard deterministically.
func shardPlatforms(apps []model.Application, n int) []model.Platform {
	byShard := map[int][]model.Platform{}
	for p := 1; ; p++ {
		pl := model.TaihuLight()
		pl.Processors = float64(p)
		s := shardOf(appendScenarioKey(nil, pl, apps, sched.Fair, 0))
		byShard[s] = append(byShard[s], pl)
		if len(byShard[s]) == n {
			return byShard[s]
		}
	}
}

// newSchedule is the computation of tests that exercise only the
// cache's bookkeeping.
func newSchedule() (*sched.Schedule, error) { return &sched.Schedule{}, nil }

// TestCacheBoundEntries inserts eight times more distinct scenarios
// than the cache holds: no shard keeps more than its budget, every
// miss is either a live entry or a capacity eviction, and the
// schedules served after eviction are the uncached engine's.
func TestCacheBoundEntries(t *testing.T) {
	const budget = 2
	cache := newCache(budget)
	eng := New(Config{Workers: 1, Cache: cache})
	hs := []sched.Heuristic{sched.DominantMinRatio, sched.Fair, sched.ZeroCache, sched.RandomPart}
	var scs []Scenario
	for p := 1; len(scs)*len(hs) <= 8*numShards*budget; p++ {
		pl := model.TaihuLight()
		pl.Processors = float64(8 * p)
		scs = append(scs, Scenario{Platform: pl, Apps: workload.NPB(), Heuristics: hs, Seed: uint64(p)})
	}
	want := New(Config{Workers: 1}).EvaluateBatch(scs)
	for pass := 0; pass < 2; pass++ {
		got := eng.EvaluateBatch(scs)
		for si := range want {
			for hi, w := range want[si].Results {
				g := got[si].Results[hi]
				if w.Err != nil || g.Err != nil {
					t.Fatalf("scenario %d %v: errors %v, %v", si, w.Heuristic, w.Err, g.Err)
				}
				if g.Schedule.Makespan != w.Schedule.Makespan {
					t.Fatalf("pass %d scenario %d %v: makespan %v, want %v",
						pass, si, w.Heuristic, g.Schedule.Makespan, w.Schedule.Makespan)
				}
			}
		}
	}
	for i := range cache.shards {
		if n := len(cache.shards[i].m); n > budget {
			t.Fatalf("shard %d holds %d entries, budget %d", i, n, budget)
		}
	}
	st := cache.Stats()
	if st.Entries > numShards*budget {
		t.Fatalf("%d entries, budget %d", st.Entries, numShards*budget)
	}
	if st.CapacityEvictions == 0 || st.CapacityEvictions != st.Misses-uint64(st.Entries) {
		t.Fatalf("%d capacity evictions, want misses %d - entries %d", st.CapacityEvictions, st.Misses, st.Entries)
	}
	if st.Evictions != 0 {
		t.Fatalf("%d cancellation evictions without a cancellation", st.Evictions)
	}
}

// TestCacheBoundKeepsInFlight blocks one computation, floods its full
// shard with inserts, and then sends an identical request: the
// in-flight entry must survive the flood, and the second caller must
// collapse onto it instead of computing again.
func TestCacheBoundKeepsInFlight(t *testing.T) {
	const budget = 2
	cache := newCache(budget)
	apps := workload.NPB()
	pls := shardPlatforms(apps, 4*budget+1)
	sh := &cache.shards[shardOf(appendScenarioKey(nil, pls[0], apps, sched.Fair, 0))]
	key := scenarioKey(pls[0], apps, sched.Fair, 0)
	ctx := context.Background()
	want := &sched.Schedule{Makespan: 1}

	started, release := make(chan struct{}), make(chan struct{})
	var blockedCalls atomic.Int32
	blocked := func() (*sched.Schedule, error) {
		if blockedCalls.Add(1) == 1 {
			close(started)
		}
		<-release
		return want, nil
	}
	type outcome struct {
		s         *sched.Schedule
		fromCache bool
	}
	first, second := make(chan outcome, 1), make(chan outcome, 1)
	go func() {
		s, _, fc := cache.getOrCompute(ctx, pls[0], apps, sched.Fair, 0, blocked)
		first <- outcome{s, fc}
	}()
	<-started
	sh.mu.Lock()
	ent := sh.m[key]
	sh.mu.Unlock()

	for _, pl := range pls[1:] {
		cache.getOrCompute(ctx, pl, apps, sched.Fair, 0, newSchedule)
	}
	sh.mu.Lock()
	survived := sh.m[key] == ent
	sh.mu.Unlock()
	if !survived {
		close(release)
		t.Fatal("the CLOCK hand evicted an in-flight entry")
	}

	go func() {
		s, _, fc := cache.getOrCompute(ctx, pls[0], apps, sched.Fair, 0, blocked)
		second <- outcome{s, fc}
	}()
	// The second caller has collapsed onto the entry once its lookup set
	// the reference bit, which nothing else sets. The deadline turns a
	// lookup that never marks the entry into a failure, not a hang.
	for deadline := time.Now().Add(10 * time.Second); ; runtime.Gosched() {
		sh.mu.Lock()
		ref := ent.ref
		sh.mu.Unlock()
		if ref {
			break
		}
		if time.Now().After(deadline) {
			close(release)
			t.Fatal("the second caller's lookup never marked the in-flight entry")
		}
	}
	close(release)
	a, b := <-first, <-second
	if a.fromCache || !b.fromCache || a.s != want || b.s != want {
		t.Fatalf("first (fromCache %v), second (fromCache %v): want one computation shared", a.fromCache, b.fromCache)
	}
	if n := blockedCalls.Load(); n != 1 {
		t.Fatalf("blocked key computed %d times, want 1", n)
	}
	if st := cache.Stats(); st.Misses != uint64(len(pls)) || st.Hits != 1 {
		t.Fatalf("misses %d, hits %d; want %d and 1", st.Misses, st.Hits, len(pls))
	}
}

// TestCacheBoundShedsOverflow: an insert that finds every entry of its
// full shard in flight exceeds the budget, and the shard's next insert
// sheds the excess.
func TestCacheBoundShedsOverflow(t *testing.T) {
	cache := newCache(1)
	apps := workload.NPB()
	pls := shardPlatforms(apps, 3)
	ctx := context.Background()
	started, release, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		cache.getOrCompute(ctx, pls[0], apps, sched.Fair, 0, func() (*sched.Schedule, error) {
			close(started)
			<-release
			return &sched.Schedule{}, nil
		})
	}()
	<-started
	cache.getOrCompute(ctx, pls[1], apps, sched.Fair, 0, newSchedule)
	close(release)
	<-done
	if st := cache.Stats(); st.Entries != 2 || st.CapacityEvictions != 0 {
		t.Fatalf("entries %d, capacity evictions %d after an all-in-flight insert; want 2, 0", st.Entries, st.CapacityEvictions)
	}
	cache.getOrCompute(ctx, pls[2], apps, sched.Fair, 0, newSchedule)
	if st := cache.Stats(); st.Entries != 1 || st.CapacityEvictions != 2 {
		t.Fatalf("entries %d, capacity evictions %d after the next insert; want 1, 2", st.Entries, st.CapacityEvictions)
	}
}

// TestCacheBoundSecondChance: with a shard full, the entry hit since
// its insertion outlives the one nobody read again.
func TestCacheBoundSecondChance(t *testing.T) {
	cache := newCache(2)
	apps := workload.NPB()
	pls := shardPlatforms(apps, 3)
	ctx := context.Background()
	get := func(pl model.Platform) bool {
		_, _, fromCache := cache.getOrCompute(ctx, pl, apps, sched.Fair, 0, newSchedule)
		return fromCache
	}
	get(pls[0])
	get(pls[1])
	if !get(pls[0]) {
		t.Fatal("no hit on a fresh entry")
	}
	get(pls[2]) // full shard: the hand passes pls[0] and evicts pls[1]
	if !get(pls[0]) {
		t.Fatal("the referenced entry was evicted")
	}
	if get(pls[1]) {
		t.Fatal("the unreferenced entry outlived the referenced one")
	}
	if st := cache.Stats(); st.CapacityEvictions != 2 {
		t.Fatalf("%d capacity evictions, want 2", st.CapacityEvictions)
	}
}

// TestCacheBoundReclaimsCancelled: an entry cancellation removed from
// the map still holds its ring slot. When the hand reclaims the slot
// it must not delete the key, which now belongs to a live retry.
func TestCacheBoundReclaimsCancelled(t *testing.T) {
	cache := newCache(2)
	apps := workload.NPB()
	pls := shardPlatforms(apps, 2)
	ctx := context.Background()
	cancelled := func() (*sched.Schedule, error) { return nil, context.Canceled }
	if _, err, _ := cache.getOrCompute(ctx, pls[0], apps, sched.Fair, 0, cancelled); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if _, _, fromCache := cache.getOrCompute(ctx, pls[0], apps, sched.Fair, 0, newSchedule); fromCache {
		t.Fatal("the retry was served the cancelled entry")
	}
	// The ring is full with the cancelled entry and the retry; this
	// insert reclaims the cancelled entry's slot.
	cache.getOrCompute(ctx, pls[1], apps, sched.Fair, 0, newSchedule)
	if _, _, fromCache := cache.getOrCompute(ctx, pls[0], apps, sched.Fair, 0, newSchedule); !fromCache {
		t.Fatal("reclaiming the cancelled slot deleted the live retry")
	}
	st := cache.Stats()
	if st.Evictions != 1 || st.CapacityEvictions != 0 || st.Entries != 2 {
		t.Fatalf("evictions %d, capacity evictions %d, entries %d; want 1, 0, 2",
			st.Evictions, st.CapacityEvictions, st.Entries)
	}
}
