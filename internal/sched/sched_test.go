package sched

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/model"
	"repro/internal/solve"
	"repro/internal/workload"
)

func refPlatform() model.Platform { return model.TaihuLight() }

func npbApps(seq float64) []model.Application {
	apps := workload.NPB()
	for i := range apps {
		apps[i].SeqFraction = seq
	}
	return apps
}

func synthApps(seed uint64, n int, seq float64) []model.Application {
	apps, err := workload.Generate(workload.Config{
		Generator: workload.GenNPBSynth, N: n, Seq: seq, SeqFixed: true,
	}, solve.NewRNG(seed))
	if err != nil {
		panic(err)
	}
	return apps
}

func TestHeuristicStringRoundTrip(t *testing.T) {
	for _, h := range ExtendedHeuristics {
		got, err := ParseHeuristic(h.String())
		if err != nil || got != h {
			t.Fatalf("round trip failed for %v: %v, %v", h, got, err)
		}
	}
	if _, err := ParseHeuristic("NoSuch"); err == nil {
		t.Fatal("unknown name accepted")
	}
	if len(Heuristics) != 10 {
		t.Fatalf("the paper defines 10 policies, Heuristics has %d", len(Heuristics))
	}
	if len(ExtendedHeuristics) != 12 {
		t.Fatalf("ExtendedHeuristics has %d entries", len(ExtendedHeuristics))
	}
}

func TestExtendedHeuristicsProduceValidSchedules(t *testing.T) {
	pl := refPlatform()
	apps := synthApps(71, 20, 0.06)
	for _, h := range []Heuristic{SharedCache, LocalSearch} {
		s, err := h.Schedule(pl, apps, solve.NewRNG(1))
		if err != nil {
			t.Fatalf("%v: %v", h, err)
		}
		if err := s.Validate(pl, apps); err != nil {
			t.Fatalf("%v: %v", h, err)
		}
	}
}

func TestAllHeuristicsProduceValidSchedules(t *testing.T) {
	pl := refPlatform()
	for _, seq := range []float64{0, 0.05, 0.15} {
		apps := synthApps(11, 40, seq)
		for _, h := range Heuristics {
			s, err := h.Schedule(pl, apps, solve.NewRNG(1))
			if err != nil {
				t.Fatalf("%v (seq=%g): %v", h, seq, err)
			}
			if err := s.Validate(pl, apps); err != nil {
				t.Fatalf("%v (seq=%g): %v", h, seq, err)
			}
			if !(s.Makespan > 0) || math.IsInf(s.Makespan, 0) || math.IsNaN(s.Makespan) {
				t.Fatalf("%v: makespan %v", h, s.Makespan)
			}
		}
	}
}

func TestScheduleRejectsInvalidInput(t *testing.T) {
	pl := refPlatform()
	if _, err := DominantMinRatio.Schedule(pl, nil, nil); err == nil {
		t.Fatal("empty set accepted")
	}
	bad := npbApps(0)
	bad[0].Work = -1
	if _, err := Fair.Schedule(pl, bad, nil); err == nil {
		t.Fatal("invalid application accepted")
	}
}

func TestLemma2Processors(t *testing.T) {
	pl := refPlatform()
	apps := npbApps(0)
	shares := []float64{0.1, 0.2, 0.3, 0.2, 0.1, 0.1}
	procs, K := ProcessorsLemma2(pl, apps, shares)
	// Budget exactly consumed.
	if s := solve.Sum(procs); math.Abs(s-pl.Processors) > 1e-9*pl.Processors {
		t.Fatalf("processor sum %v, want %v", s, pl.Processors)
	}
	// All finish at K.
	for i, a := range apps {
		e := a.Exe(pl, procs[i], shares[i])
		if math.Abs(e-K) > 1e-9*K {
			t.Fatalf("app %d finishes at %v, not %v", i, e, K)
		}
	}
}

func TestEqualizeAmdahlEqualFinish(t *testing.T) {
	pl := refPlatform()
	apps := npbApps(0.08)
	shares := []float64{0.3, 0.2, 0.1, 0.2, 0.1, 0.1}
	procs, K, err := EqualizeAmdahl(pl, apps, shares)
	if err != nil {
		t.Fatal(err)
	}
	if s := solve.Sum(procs); s > pl.Processors*(1+1e-9) {
		t.Fatalf("processor sum %v exceeds budget", s)
	}
	for i, a := range apps {
		e := a.Exe(pl, procs[i], shares[i])
		if math.Abs(e-K) > 1e-6*K {
			t.Fatalf("app %d finishes at %v, not K=%v", i, e, K)
		}
	}
}

func TestEqualizeAmdahlPerfectlyParallelDelegates(t *testing.T) {
	pl := refPlatform()
	apps := npbApps(0)
	shares := make([]float64, len(apps))
	procs, K, err := EqualizeAmdahl(pl, apps, shares)
	if err != nil {
		t.Fatal(err)
	}
	wantProcs, wantK := ProcessorsLemma2(pl, apps, shares)
	if math.Abs(K-wantK) > 1e-12*wantK {
		t.Fatalf("K %v, want %v", K, wantK)
	}
	for i := range procs {
		if math.Abs(procs[i]-wantProcs[i]) > 1e-9*wantProcs[i] {
			t.Fatalf("procs[%d] %v, want %v", i, procs[i], wantProcs[i])
		}
	}
}

func TestEqualizeMoreAppsThanProcessors(t *testing.T) {
	pl := refPlatform()
	pl.Processors = 4
	apps := synthApps(3, 16, 0.1) // n >> p
	shares := make([]float64, len(apps))
	procs, K, err := EqualizeAmdahl(pl, apps, shares)
	if err != nil {
		t.Fatal(err)
	}
	if s := solve.Sum(procs); s > pl.Processors*(1+1e-9) {
		t.Fatalf("sum %v exceeds %v", s, pl.Processors)
	}
	for i, a := range apps {
		e := a.Exe(pl, procs[i], shares[i])
		if math.Abs(e-K) > 1e-6*K {
			t.Fatalf("app %d: %v vs K=%v", i, e, K)
		}
	}
}

func TestFairFormulas(t *testing.T) {
	pl := refPlatform()
	apps := npbApps(0.05)
	s, err := Fair.Schedule(pl, apps, nil)
	if err != nil {
		t.Fatal(err)
	}
	var fsum float64
	for _, a := range apps {
		fsum += a.AccessFreq
	}
	for i, a := range apps {
		if got, want := s.Assignments[i].Processors, pl.Processors/float64(len(apps)); math.Abs(got-want) > 1e-12 {
			t.Fatalf("fair procs[%d] = %v, want %v", i, got, want)
		}
		if got, want := s.Assignments[i].CacheShare, a.AccessFreq/fsum; math.Abs(got-want) > 1e-12 {
			t.Fatalf("fair cache[%d] = %v, want %v", i, got, want)
		}
	}
}

func TestZeroCacheGivesNoCacheAndEqualFinish(t *testing.T) {
	pl := refPlatform()
	apps := npbApps(0.05)
	s, err := ZeroCache.Schedule(pl, apps, nil)
	if err != nil {
		t.Fatal(err)
	}
	ft := s.FinishTimes(pl, apps)
	for i := range apps {
		if s.Assignments[i].CacheShare != 0 {
			t.Fatalf("ZeroCache allotted cache to app %d", i)
		}
		if math.Abs(ft[i]-s.Makespan) > 1e-6*s.Makespan {
			t.Fatalf("ZeroCache app %d finishes at %v, makespan %v", i, ft[i], s.Makespan)
		}
	}
}

func TestAllProcCacheSequentialAccumulation(t *testing.T) {
	pl := refPlatform()
	apps := npbApps(0.05)
	s, err := AllProcCache.Schedule(pl, apps, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Sequential {
		t.Fatal("AllProcCache must be sequential")
	}
	var want float64
	for _, a := range apps {
		want += a.Exe(pl, pl.Processors, 1)
	}
	if math.Abs(s.Makespan-want) > 1e-9*want {
		t.Fatalf("makespan %v, want sum of runs %v", s.Makespan, want)
	}
	ft := s.FinishTimes(pl, apps)
	for i := 1; i < len(ft); i++ {
		if ft[i] <= ft[i-1] {
			t.Fatalf("sequential finish times not increasing: %v", ft)
		}
	}
}

func TestDominantScheduleEqualFinishTimes(t *testing.T) {
	pl := refPlatform()
	apps := synthApps(5, 24, 0.07)
	s, err := DominantMinRatio.Schedule(pl, apps, nil)
	if err != nil {
		t.Fatal(err)
	}
	ft := s.FinishTimes(pl, apps)
	for i, f := range ft {
		if math.Abs(f-s.Makespan) > 1e-6*s.Makespan {
			t.Fatalf("app %d finishes at %v, makespan %v (Lemma 1 violated)", i, f, s.Makespan)
		}
	}
}

func TestDominantBeatsNaiveBaselinesAtScale(t *testing.T) {
	// Fig. 3's headline: with many applications, DominantMinRatio beats
	// Fair and AllProcCache clearly.
	pl := refPlatform()
	apps := synthApps(8, 128, 0.08)
	get := func(h Heuristic) float64 {
		s, err := h.Schedule(pl, apps, solve.NewRNG(2))
		if err != nil {
			t.Fatal(err)
		}
		return s.Makespan
	}
	dmr := get(DominantMinRatio)
	if fair := get(Fair); dmr > 0.8*fair {
		t.Fatalf("DMR %v not clearly better than Fair %v", dmr, fair)
	}
	if apc := get(AllProcCache); dmr > 0.3*apc {
		t.Fatalf("DMR %v not clearly better than AllProcCache %v", dmr, apc)
	}
	if zc := get(ZeroCache); dmr > zc*(1+1e-9) {
		t.Fatalf("DMR %v worse than ZeroCache %v", dmr, zc)
	}
}

func TestRandomizedHeuristicsDeterministicPerSeed(t *testing.T) {
	pl := refPlatform()
	apps := synthApps(9, 32, 0.05)
	for _, h := range []Heuristic{DominantRandom, DominantRevRandom, RandomPart} {
		a, err := h.Schedule(pl, apps, solve.NewRNG(123))
		if err != nil {
			t.Fatal(err)
		}
		b, err := h.Schedule(pl, apps, solve.NewRNG(123))
		if err != nil {
			t.Fatal(err)
		}
		if a.Makespan != b.Makespan {
			t.Fatalf("%v not deterministic for a fixed seed: %v vs %v", h, a.Makespan, b.Makespan)
		}
	}
}

func TestNilRNGAccepted(t *testing.T) {
	pl := refPlatform()
	apps := npbApps(0)
	for _, h := range Heuristics {
		if _, err := h.Schedule(pl, apps, nil); err != nil {
			t.Fatalf("%v with nil rng: %v", h, err)
		}
	}
}

func TestExactSubsetSmall(t *testing.T) {
	pl := refPlatform()
	apps := npbApps(0)
	s, members, err := ExactSubset(pl, apps)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(pl, apps); err != nil {
		t.Fatal(err)
	}
	if len(members) != len(apps) {
		t.Fatalf("membership length %d", len(members))
	}
}

func TestExactSubsetRejectsLargeN(t *testing.T) {
	pl := refPlatform()
	apps := synthApps(1, 25, 0)
	if _, _, err := ExactSubset(pl, apps); err == nil {
		t.Fatal("n=25 accepted")
	}
}

// The key validation: on perfectly parallel instances the dominant
// heuristics must match the exact optimum (the theory says dominant
// partitions contain the optimum, and on these instances the full set is
// dominant) or at worst be very close.
func TestHeuristicsNearExactOptimum(t *testing.T) {
	pl := refPlatform()
	for seed := uint64(0); seed < 12; seed++ {
		apps := synthApps(seed, 8, 0)
		exact, _, err := ExactSubset(pl, apps)
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range DominantHeuristics {
			s, err := h.Schedule(pl, apps, solve.NewRNG(seed))
			if err != nil {
				t.Fatal(err)
			}
			if s.Makespan < exact.Makespan*(1-1e-9) {
				t.Fatalf("seed %d: %v beat the exact optimum (%v < %v)", seed, h, s.Makespan, exact.Makespan)
			}
			if s.Makespan > exact.Makespan*1.02 {
				t.Fatalf("seed %d: %v is %v, exact %v (> 2%% off)", seed, h, s.Makespan, exact.Makespan)
			}
		}
	}
}

// Under a small cache with large miss rates, partitions matter: the exact
// optimum still lower-bounds every heuristic.
func TestExactLowerBoundsHeuristicsSmallCache(t *testing.T) {
	pl := refPlatform()
	pl.CacheSize = 1e8
	for seed := uint64(0); seed < 6; seed++ {
		apps := synthApps(seed, 8, 0)
		for i := range apps {
			apps[i].RefMissRate = 0.3 + 0.1*float64(i%3)
		}
		exact, _, err := ExactSubset(pl, apps)
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range DominantHeuristics {
			s, err := h.Schedule(pl, apps, solve.NewRNG(seed))
			if err != nil {
				t.Fatal(err)
			}
			if s.Makespan < exact.Makespan*(1-1e-9) {
				t.Fatalf("seed %d: %v beat exact (%v < %v)", seed, h, s.Makespan, exact.Makespan)
			}
		}
	}
}

func TestValidateCatchesBrokenSchedules(t *testing.T) {
	pl := refPlatform()
	apps := npbApps(0)
	s, err := DominantMinRatio.Schedule(pl, apps, nil)
	if err != nil {
		t.Fatal(err)
	}
	tamper := func(mut func(*Schedule)) *Schedule {
		c := &Schedule{Assignments: append([]Assignment(nil), s.Assignments...), Makespan: s.Makespan}
		mut(c)
		return c
	}
	if err := tamper(func(c *Schedule) { c.Assignments[0].Processors = -1 }).Validate(pl, apps); err == nil {
		t.Fatal("negative processors accepted")
	}
	if err := tamper(func(c *Schedule) { c.Assignments[0].CacheShare = 1.5 }).Validate(pl, apps); err == nil {
		t.Fatal("cache share above 1 accepted")
	}
	if err := tamper(func(c *Schedule) { c.Assignments[0].Processors = pl.Processors * 2 }).Validate(pl, apps); err == nil {
		t.Fatal("processor oversubscription accepted")
	}
	if err := tamper(func(c *Schedule) { c.Makespan *= 2 }).Validate(pl, apps); err == nil {
		t.Fatal("wrong makespan accepted")
	}
	if err := tamper(func(c *Schedule) { c.Assignments = c.Assignments[:2] }).Validate(pl, apps); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

// Property: every heuristic yields a feasible schedule on random Amdahl
// workloads of random size.
func TestSchedulesFeasibleProperty(t *testing.T) {
	pl := refPlatform()
	f := func(seed uint64, hIdx uint8) bool {
		h := Heuristics[int(hIdx)%len(Heuristics)]
		n := 1 + int(seed%60)
		apps := synthApps(seed, n, 0.01+0.1*float64(seed%10)/10)
		s, err := h.Schedule(pl, apps, solve.NewRNG(seed))
		if err != nil {
			return false
		}
		return s.Validate(pl, apps) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: giving the machine more processors never hurts any
// concurrent heuristic (monotonicity of the makespan in p).
func TestMakespanMonotoneInProcessors(t *testing.T) {
	apps := synthApps(21, 24, 0.06)
	for _, h := range []Heuristic{DominantMinRatio, Fair, ZeroCache} {
		prev := math.Inf(1)
		for _, p := range []float64{16, 32, 64, 128, 256} {
			pl := refPlatform()
			pl.Processors = p
			s, err := h.Schedule(pl, apps, nil)
			if err != nil {
				t.Fatal(err)
			}
			if s.Makespan > prev*(1+1e-9) {
				t.Fatalf("%v: makespan rose from %v to %v when p grew to %g", h, prev, s.Makespan, p)
			}
			prev = s.Makespan
		}
	}
}

func TestSortedByRatio(t *testing.T) {
	pl := refPlatform()
	apps := npbApps(0)
	idx := SortedByRatio(pl, apps)
	for i := 1; i < len(idx); i++ {
		if apps[idx[i-1]].DominanceRatio(pl) > apps[idx[i]].DominanceRatio(pl) {
			t.Fatal("not sorted by ratio")
		}
	}
}

// TestEqualizerMakespanZeroLane: makespan takes each completion time as
// ExeD's own product from the equalization's costs per operation, so it
// equals maxFinish bit for bit, and a lane left without processors
// makes it +Inf, as ExeD does.
func TestEqualizerMakespanZeroLane(t *testing.T) {
	pl := refPlatform()
	apps := npbApps(0.05)
	shares := []float64{0.3, 0.2, 0.1, 0.2, 0.1, 0.1}
	d := dOf(pl, apps)
	var eq equalizer
	procs, _, err := eq.equalize(pl, apps, d, shares)
	if err != nil {
		t.Fatal(err)
	}
	asg := make([]Assignment, len(apps))
	for i := range asg {
		asg[i] = Assignment{Processors: procs[i], CacheShare: shares[i]}
	}
	if got, want := eq.makespan(apps, procs), maxFinish(pl, apps, d, asg); math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("makespan %v, maxFinish %v", got, want)
	}
	lanes := append([]float64(nil), procs...)
	lanes[2] = 0
	if m := eq.makespan(apps, lanes); !math.IsInf(m, 1) {
		t.Errorf("makespan with a zero-processor lane = %v, want +Inf", m)
	}
}
