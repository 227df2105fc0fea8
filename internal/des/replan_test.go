package des

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/solve"
)

// allocPolicies builds one instance of each of the three policy kinds
// for the shared edge-case tests.
func allocPolicies(t *testing.T) map[string]Policy {
	t.Helper()
	hp, err := NewHeuristicPolicy(sched.DominantMinRatio, 1)
	if err != nil {
		t.Fatal(err)
	}
	nr, err := NewNoRepartition(sched.DominantMinRatio, 1)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Policy{
		"heuristic":     hp,
		"portfolio":     NewPortfolioPolicy(1),
		"norepartition": nr,
	}
}

// TestResidualWorkUnderflow parks a job exactly at the completion
// tolerance with a denormal-small profile, so Work × Remaining
// underflows to exactly zero — the residualApps edge that used to hand
// the heuristics an app every validator rejects (Work must be > 0).
// All three policies must still produce an allocation.
func TestResidualWorkUnderflow(t *testing.T) {
	pl := model.TaihuLight()
	apps := testApps(t, 2)
	tiny := apps[0]
	tiny.Work = 1e-312
	if tiny.Work*doneTol != 0 {
		t.Fatalf("precondition: %g × doneTol must underflow to 0, got %g", tiny.Work, tiny.Work*doneTol)
	}
	if err := tiny.Validate(); err != nil {
		t.Fatalf("precondition: the tiny profile itself must be valid: %v", err)
	}
	for name, pol := range allocPolicies(t) {
		residents := []Resident{
			{Job: 0, App: tiny, Remaining: doneTol, Started: true},
			{Job: 1, App: apps[1], Remaining: 1},
		}
		asg, err := pol.Allocate(pl, residents)
		if err != nil {
			t.Errorf("%s: Allocate with an underflowing residual failed: %v", name, err)
			continue
		}
		if len(asg) != len(residents) {
			t.Errorf("%s: got %d assignments for %d residents", name, len(asg), len(residents))
		}
	}
}

// TestDurationBoundaryHalfOpen pins the admission window as [0,
// Duration): an arrival at exactly t == Duration is truncated, for
// every arrival process alike.
func TestDurationBoundaryHalfOpen(t *testing.T) {
	pl := model.TaihuLight()
	apps := testApps(t, 2)
	factory, err := CycleApps(apps)
	if err != nil {
		t.Fatal(err)
	}
	newPolicy := func() Policy {
		p, err := NewHeuristicPolicy(sched.DominantMinRatio, 3)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	t.Run("replay", func(t *testing.T) {
		arr := []Arrival{
			{Time: 0, App: apps[0]},
			{Time: 1e9, App: apps[1]},
			{Time: 2e9, App: apps[0]},
		}
		rp, err := NewReplay(arr)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Simulate(Scenario{Platform: pl, Arrivals: rp, Policy: newPolicy(), Duration: 2e9})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Jobs) != 2 || res.Truncated != 1 {
			t.Errorf("replay: admitted %d / truncated %d, want 2 / 1 (t == Duration is out)", len(res.Jobs), res.Truncated)
		}
	})

	t.Run("batch", func(t *testing.T) {
		bp, err := NewBatch(1e9, 1, 3, factory) // arrivals at t = 0, 1e9, 2e9
		if err != nil {
			t.Fatal(err)
		}
		res, err := Simulate(Scenario{Platform: pl, Arrivals: bp, Policy: newPolicy(), Duration: 2e9})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Jobs) != 2 || res.Truncated != 1 {
			t.Errorf("batch: admitted %d / truncated %d, want 2 / 1 (t == Duration is out)", len(res.Jobs), res.Truncated)
		}
	})

	t.Run("poisson", func(t *testing.T) {
		// Record the third arrival time of the seeded stream, then replay
		// the identical stream with Duration pinned to exactly that time.
		probe, err := NewPoisson(1e-9, 3, factory, solve.NewRNG(9))
		if err != nil {
			t.Fatal(err)
		}
		var third float64
		for i := 0; i < 3; i++ {
			a, ok := probe.Next()
			if !ok {
				t.Fatal("poisson stream ended early")
			}
			third = a.Time
		}
		pp, err := NewPoisson(1e-9, 3, factory, solve.NewRNG(9))
		if err != nil {
			t.Fatal(err)
		}
		res, err := Simulate(Scenario{Platform: pl, Arrivals: pp, Policy: newPolicy(), Duration: third})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Jobs) != 2 || res.Truncated != 1 {
			t.Errorf("poisson: admitted %d / truncated %d, want 2 / 1 (t == Duration is out)", len(res.Jobs), res.Truncated)
		}
	})
}

// TestNoRepartitionStuckWaveDrains pins the corrected drain condition:
// a resident holding processors but making zero progress (its execution
// time under the current allocation is +Inf — the huge-work,
// zero-cache, high-latency edge) must not freeze the wave forever.
// The next decision point has to fall through to a fresh wave that
// allocates the waiting arrivals.
func TestNoRepartitionStuckWaveDrains(t *testing.T) {
	pl := model.TaihuLight()
	apps := testApps(t, 2)
	stuck := apps[0]
	stuck.Work = 2e306
	stuck.AccessFreq = 100
	if !math.IsInf(stuck.Exe(pl, 1, 0), 1) {
		t.Fatalf("precondition: the stuck profile must have Exe = +Inf on (1 proc, 0 cache), got %g", stuck.Exe(pl, 1, 0))
	}
	pol, err := NewNoRepartition(sched.DominantMinRatio, 1)
	if err != nil {
		t.Fatal(err)
	}
	residents := []Resident{
		{Job: 0, App: stuck, Remaining: 0.5, Assign: sched.Assignment{Processors: 1, CacheShare: 0}, Started: true},
		{Job: 1, App: apps[1], Remaining: 1}, // fresh arrival, parked
	}
	asg, err := pol.Allocate(pl, residents)
	if err != nil {
		t.Fatalf("Allocate on a stuck wave: %v", err)
	}
	if asg[1].Processors <= 0 {
		t.Fatalf("stuck wave froze out the new arrival (got %+v); the drain condition must ignore zero-progress residents", asg[1])
	}
	// A genuinely progressing wave must still freeze.
	residents[0] = Resident{Job: 0, App: apps[0], Remaining: 0.5, Assign: sched.Assignment{Processors: 128, CacheShare: 0.5}, Started: true}
	asg, err = pol.Allocate(pl, residents)
	if err != nil {
		t.Fatal(err)
	}
	if asg[1].Processors != 0 || asg[0] != residents[0].Assign {
		t.Fatalf("running wave was not frozen: %+v", asg)
	}
}

// waveScenario is a saturated online scenario whose resident sets recur
// (cycled template jobs under a residency cap): the workload where the
// delta fast path should fire.
func waveScenario(t *testing.T, spec string, seed uint64) Scenario {
	t.Helper()
	pl := model.TaihuLight()
	factory, err := CycleApps(testApps(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	ap, err := NewPoisson(2e-9, 24, factory, solve.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	pol, err := ParsePolicy(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	return Scenario{Platform: pl, Arrivals: ap, Policy: pol, MaxResident: 3}
}

// TestDeltaMatchesFullReplan is the in-package equivalence spot check
// (the exhaustive sweep lives in the conform build): the delta fast
// path must reproduce the full-replan run bit-for-bit — event log, job
// metrics, and every integral — while actually taking fast paths. A
// race with no deterministic lane (DominantRandom) never touches a
// memo: it takes no fast path and counts no memo hit or miss.
func TestDeltaMatchesFullReplan(t *testing.T) {
	for _, spec := range []string{"portfolio", "DominantMinRatio", "DominantRandom"} {
		delta, err := Simulate(waveScenario(t, spec, 7))
		if err != nil {
			t.Fatalf("%s: delta run: %v", spec, err)
		}
		full, err := Simulate(waveScenario(t, spec+":full", 7))
		if err != nil {
			t.Fatalf("%s: full run: %v", spec, err)
		}
		if spec != "DominantRandom" && delta.Replan.FastPath == 0 {
			t.Errorf("%s: delta run never took the fast path (stats %+v)", spec, delta.Replan)
		}
		if st := delta.Replan; spec == "DominantRandom" && (st.FastPath != 0 || st.MemoHits != 0 || st.MemoMisses != 0) {
			t.Errorf("%s: a race with no deterministic lane touched the memo (stats %+v)", spec, st)
		}
		if full.Replan.FastPath != 0 {
			t.Errorf("%s:full: full-replan run claims fast paths (stats %+v)", spec, full.Replan)
		}
		// Telemetry is the only field allowed to differ.
		delta.Replan, full.Replan = ReplanStats{}, ReplanStats{}
		if !reflect.DeepEqual(delta, full) {
			t.Errorf("%s: delta and full-replan results differ", spec)
		}
	}
}

// TestHeuristicPolicyFastPathAllocs: a memo-served Allocate call on a
// deterministic heuristic policy is allocation-free — no RNG, no
// residual buffer growth, no solve.
func TestHeuristicPolicyFastPathAllocs(t *testing.T) {
	pl := model.TaihuLight()
	apps := testApps(t, 4)
	pol, err := NewHeuristicPolicy(sched.DominantMinRatio, 1)
	if err != nil {
		t.Fatal(err)
	}
	residents := make([]Resident, len(apps))
	for i, a := range apps {
		residents[i] = Resident{Job: i, App: a, Remaining: 1}
	}
	if _, err := pol.Allocate(pl, residents); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := pol.Allocate(pl, residents); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("memo-served Allocate allocates %.1f times per run, want 0", allocs)
	}
}

// TestReplanAllocBudget pins what an online replan allocates. A
// memo-hit portfolio Allocate re-solves only the randomized lanes, into
// the policy's lane buffers with streams reseeded in place, and
// allocates nothing. A full replan of a resident set the memo has not
// seen also stores its deterministic plans and the set's key. The memo
// carves its copies in chunks until its ring wraps and then reuses the
// storage of the plans it evicts, so over 100 such calls the average is
// the key plus a fraction: AllocsPerRun reads 1, and the budget leaves
// one for the collector. Pools refill at random under -race, so the
// test skips there.
func TestReplanAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not deterministic under -race")
	}
	const fullReplanBudget = 2
	pl := model.TaihuLight()
	apps := testApps(t, 4)
	residents := make([]Resident, len(apps))
	for i, a := range apps {
		residents[i] = Resident{Job: i, App: a, Remaining: 1}
	}
	pol := NewPortfolioPolicy(1)
	if _, err := pol.Allocate(pl, residents); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := pol.Allocate(pl, residents); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("memo-hit Allocate allocates %.2f times per call, want 0", n)
	}
	// Every call sees a resident set the memo has not: the first job's
	// remaining work shrinks each time.
	call := 0
	if n := testing.AllocsPerRun(100, func() {
		call++
		residents[0].Remaining = 1 / float64(call+1)
		if _, err := pol.Allocate(pl, residents); err != nil {
			t.Fatal(err)
		}
	}); n > fullReplanBudget {
		t.Errorf("a full replan allocates %.2f times per call, budget %d", n, fullReplanBudget)
	}
	if st := pol.ReplanStats(); st.FullSolve < 100 {
		t.Errorf("replan stats %+v: the second run did not replan in full", st)
	}
}

// TestPortfolioPolicyFastPathAllocs bounds the delta path of the
// portfolio policy: only the randomized heuristics re-solve (their
// substreams never repeat), so the per-call allocation budget is a
// handful of RNGs and schedules instead of a full race.
func TestPortfolioPolicyFastPathAllocs(t *testing.T) {
	pl := model.TaihuLight()
	apps := testApps(t, 4)
	pol := NewPortfolioPolicy(1)
	residents := make([]Resident, len(apps))
	for i, a := range apps {
		residents[i] = Resident{Job: i, App: a, Remaining: 1}
	}
	if _, err := pol.Allocate(pl, residents); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := pol.Allocate(pl, residents); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 32
	if allocs > budget {
		t.Errorf("delta-path Allocate allocates %.1f times per run, budget %d", allocs, budget)
	}
	if st := pol.ReplanStats(); st.FastPath == 0 || st.FullSolve != 1 {
		t.Errorf("unexpected replan stats %+v, want every post-seed call on the fast path", st)
	}
}
