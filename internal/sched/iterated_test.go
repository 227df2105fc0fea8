package sched

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/solve"
)

func TestOptimalSharesForProcsValidation(t *testing.T) {
	pl := refPlatform()
	apps := npbApps(0.05)
	if _, _, err := OptimalSharesForProcs(pl, apps, []float64{1}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	procs := make([]float64, len(apps))
	if _, _, err := OptimalSharesForProcs(pl, apps, procs); err == nil {
		t.Fatal("zero processors accepted")
	}
}

func TestOptimalSharesForProcsFeasibleAndTight(t *testing.T) {
	pl := refPlatform()
	apps := synthApps(31, 12, 0.08)
	procs := make([]float64, len(apps))
	for i := range procs {
		procs[i] = pl.Processors / float64(len(apps))
	}
	shares, K, err := OptimalSharesForProcs(pl, apps, procs)
	if err != nil {
		t.Fatal(err)
	}
	if s := solve.Sum(shares); s > 1+1e-9 {
		t.Fatalf("shares sum %v", s)
	}
	// Every application meets the makespan K with its share.
	for i, a := range apps {
		if e := a.Exe(pl, procs[i], shares[i]); e > K*(1+1e-9) {
			t.Fatalf("app %d exceeds K: %v > %v", i, e, K)
		}
	}
}

func TestOptimalSharesBeatUniformSplit(t *testing.T) {
	pl := refPlatform()
	pl.CacheSize = 1e9 // small LLC so the cache actually matters
	apps := synthApps(32, 8, 0.05)
	for i := range apps {
		apps[i].RefMissRate = 0.2
	}
	procs := make([]float64, len(apps))
	for i := range procs {
		procs[i] = pl.Processors / float64(len(apps))
	}
	_, K, err := OptimalSharesForProcs(pl, apps, procs)
	if err != nil {
		t.Fatal(err)
	}
	// Uniform cache split with the same processors.
	var uniform float64
	for i, a := range apps {
		uniform = math.Max(uniform, a.Exe(pl, procs[i], 1/float64(len(apps))))
	}
	if K > uniform*(1+1e-9) {
		t.Fatalf("optimal shares (%v) worse than uniform split (%v)", K, uniform)
	}
}

// Property: the optimized makespan for fixed processors is a lower bound
// on the makespan of ANY share vector evaluated with those processors.
func TestOptimalSharesAreOptimalProperty(t *testing.T) {
	pl := refPlatform()
	pl.CacheSize = 1e9
	f := func(seed uint64) bool {
		r := solve.NewRNG(seed)
		apps := synthApps(seed, 6, 0.05)
		for i := range apps {
			apps[i].RefMissRate = 0.1 + 0.3*r.Float64()
		}
		procs := make([]float64, len(apps))
		rest := pl.Processors
		for i := range procs {
			procs[i] = 1 + r.Float64()*rest/float64(len(apps))
			rest -= procs[i] - 1
		}
		_, K, err := OptimalSharesForProcs(pl, apps, procs)
		if err != nil {
			return false
		}
		// Random feasible share vector.
		alt := make([]float64, len(apps))
		var sum float64
		for i := range alt {
			alt[i] = r.Float64()
			sum += alt[i]
		}
		for i := range alt {
			alt[i] /= sum
		}
		var altK float64
		for i, a := range apps {
			altK = math.Max(altK, a.Exe(pl, procs[i], alt[i]))
		}
		return K <= altK*(1+1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestLocalSearchNeverWorseThanWarmStart(t *testing.T) {
	pl := refPlatform()
	pl.CacheSize = 1e9
	for seed := uint64(0); seed < 10; seed++ {
		apps := synthApps(seed, 16, 0.1)
		for i := range apps {
			apps[i].RefMissRate = 0.15
		}
		warm, err := DominantMinRatio.Schedule(pl, apps, nil)
		if err != nil {
			t.Fatal(err)
		}
		ls, err := LocalSearch.Schedule(pl, apps, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := ls.Validate(pl, apps); err != nil {
			t.Fatal(err)
		}
		if ls.Makespan > warm.Makespan*(1+1e-9) {
			t.Fatalf("seed %d: local search (%v) worse than warm start (%v)", seed, ls.Makespan, warm.Makespan)
		}
	}
}

func TestLocalSearchImprovesHeterogeneousSeqFractions(t *testing.T) {
	// A tight cache with strongly heterogeneous sequential fractions:
	// the perfectly parallel proxy misjudges who should be in the
	// cache partition, so membership toggles find strict improvements.
	pl := refPlatform()
	pl.CacheSize = 2e8
	apps := synthApps(77, 12, 0)
	for i := range apps {
		apps[i].RefMissRate = 0.4
		apps[i].SeqFraction = 0.001 + 0.149*float64(i)/11
	}
	warm, err := DominantMinRatio.Schedule(pl, apps, nil)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := LocalSearch.Schedule(pl, apps, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ls.Makespan >= warm.Makespan {
		t.Fatalf("local search (%v) did not improve on warm start (%v)", ls.Makespan, warm.Makespan)
	}
}

func TestLocalSearchMatchesExactOnSmallPerfectlyParallel(t *testing.T) {
	pl := refPlatform()
	pl.CacheSize = 1e8
	apps := synthApps(55, 8, 0)
	for i := range apps {
		apps[i].RefMissRate = 0.3
	}
	exact, _, err := ExactSubset(pl, apps)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := LocalSearch.Schedule(pl, apps, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ls.Makespan < exact.Makespan*(1-1e-9) {
		t.Fatalf("local search beat exact: %v < %v", ls.Makespan, exact.Makespan)
	}
	if ls.Makespan > exact.Makespan*1.01 {
		t.Fatalf("local search far from exact: %v vs %v", ls.Makespan, exact.Makespan)
	}
}

func TestRequiredShare(t *testing.T) {
	// A=10, M=10, d=0.04, α=0.5, maxX=1.
	if x := requiredShare(25, 10, 10, 0.04, 0.5, 1); x != 0 {
		t.Fatalf("K above A+M should need no cache, got %v", x)
	}
	if x := requiredShare(9, 10, 10, 0.04, 0.5, 1); !math.IsInf(x, 1) {
		t.Fatalf("K below A should be infeasible, got %v", x)
	}
	// target = (15-10)/10 = 0.5 → x = (0.04/0.5)² = 0.0064.
	if x := requiredShare(15, 10, 10, 0.04, 0.5, 1); math.Abs(x-0.0064) > 1e-12 {
		t.Fatalf("x = %v, want 0.0064", x)
	}
	// Footprint cap makes it infeasible.
	if x := requiredShare(15, 10, 10, 0.04, 0.5, 0.001); !math.IsInf(x, 1) {
		t.Fatalf("cap should make K infeasible, got %v", x)
	}
}

func TestRoundProcessorsBasics(t *testing.T) {
	pl := refPlatform()
	apps := synthApps(41, 24, 0.06)
	s, err := DominantMinRatio.Schedule(pl, apps, nil)
	if err != nil {
		t.Fatal(err)
	}
	ri, err := RoundProcessors(pl, apps, s)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for i, c := range ri.Processors {
		if c < 1 {
			t.Fatalf("app %d got %d processors", i, c)
		}
		total += c
	}
	if total > int(pl.Processors) {
		t.Fatalf("budget exceeded: %d", total)
	}
	if ri.Degradation < 1-1e-9 {
		t.Fatalf("integer rounding cannot beat the equal-finish rational optimum: %v", ri.Degradation)
	}
	if ri.Degradation > 2.5 {
		t.Fatalf("rounding degradation suspiciously large: %v", ri.Degradation)
	}
}

func TestRoundProcessorsRejects(t *testing.T) {
	pl := refPlatform()
	pl.Processors = 4
	apps := synthApps(42, 8, 0.05) // more apps than processors
	s, err := DominantMinRatio.Schedule(pl, apps, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RoundProcessors(pl, apps, s); err == nil {
		t.Fatal("n > p accepted")
	}
	pl2 := refPlatform()
	apps2 := npbApps(0.05)
	seq, err := AllProcCache.Schedule(pl2, apps2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RoundProcessors(pl2, apps2, seq); err == nil {
		t.Fatal("sequential schedule accepted")
	}
}

// Property: rounding preserves feasibility for any heuristic and size.
func TestRoundProcessorsProperty(t *testing.T) {
	pl := refPlatform()
	f := func(seed uint64, nPick uint8) bool {
		n := 1 + int(nPick)%64
		apps := synthApps(seed, n, 0.05)
		s, err := DominantMinRatio.Schedule(pl, apps, nil)
		if err != nil {
			return false
		}
		ri, err := RoundProcessors(pl, apps, s)
		if err != nil {
			return false
		}
		total := 0
		for _, c := range ri.Processors {
			if c < 1 {
				return false
			}
			total += c
		}
		return total <= int(pl.Processors) && ri.Degradation >= 1-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
