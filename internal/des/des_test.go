package des

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/solve"
	"repro/internal/workload"
)

// testApps returns a small Amdahl workload with heterogeneous
// sequential fractions.
func testApps(t *testing.T, n int) []model.Application {
	t.Helper()
	apps, err := workload.Generate(workload.Config{Generator: workload.GenNPBSynth, N: n}, solve.NewRNG(7))
	if err != nil {
		t.Fatalf("generating workload: %v", err)
	}
	return apps
}

// atZero builds a replay process with every app arriving at t = 0.
func atZero(t *testing.T, apps []model.Application) ArrivalProcess {
	t.Helper()
	arr := make([]Arrival, len(apps))
	for i, a := range apps {
		arr[i] = Arrival{Time: 0, App: a}
	}
	p, err := NewReplay(arr)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return p
}

// TestMatchesStaticSim is the cross-check property of the subsystem:
// with every job arriving at t = 0 and the no-repartition policy, the
// online engine must reproduce internal/sim's static execution
// bit-for-bit — same per-job finish times, same makespan, same
// processor-time integral.
func TestMatchesStaticSim(t *testing.T) {
	pl := model.TaihuLight()
	for _, h := range []sched.Heuristic{
		sched.DominantMinRatio, sched.DominantRevMaxRatio, sched.Fair, sched.ZeroCache,
	} {
		for _, n := range []int{1, 2, 6, 13} {
			apps := testApps(t, n)
			s, err := h.Schedule(pl, apps, nil)
			if err != nil {
				t.Fatalf("%v n=%d: schedule: %v", h, n, err)
			}
			want, err := sim.Execute(pl, apps, s, sim.Static)
			if err != nil {
				t.Fatalf("%v n=%d: sim: %v", h, n, err)
			}
			pol, err := NewNoRepartition(h, 0)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Simulate(Scenario{Platform: pl, Arrivals: atZero(t, apps), Policy: pol})
			if err != nil {
				t.Fatalf("%v n=%d: des: %v", h, n, err)
			}
			if got.Makespan != want.Makespan {
				t.Errorf("%v n=%d: makespan %v != sim %v", h, n, got.Makespan, want.Makespan)
			}
			for i := range apps {
				if got.Jobs[i].Finish != want.FinishTimes[i] {
					t.Errorf("%v n=%d: job %d finish %v != sim %v", h, n, i, got.Jobs[i].Finish, want.FinishTimes[i])
				}
			}
			if got.ProcessorTime != want.ProcessorTime {
				t.Errorf("%v n=%d: processor time %v != sim %v", h, n, got.ProcessorTime, want.ProcessorTime)
			}
			if got.Repartitions != 1 {
				t.Errorf("%v n=%d: %d repartitions for a static wave, want 1", h, n, got.Repartitions)
			}
		}
	}
}

// TestDeterminism: a fixed seed must yield an identical result —
// including the full event log — across repeated runs.
func TestDeterminism(t *testing.T) {
	build := func() *Result {
		sp := Spec{
			Arrivals: ArrivalSpec{Process: "poisson", Rate: 1e-9, N: 24},
			Policy:   "portfolio",
			Seed:     99,
		}
		sc, err := sp.Build()
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		res, err := Simulate(sc)
		if err != nil {
			t.Fatalf("simulate: %v", err)
		}
		return res
	}
	base := build()
	for run := 1; run <= 2; run++ {
		if got := build(); !reflect.DeepEqual(got, base) {
			t.Fatalf("run %d: result differs from the first run", run)
		}
	}
}

// TestRepartitioningBeatsFrozenWaves: with staggered arrivals, dynamic
// repartitioning should never lose to wave scheduling on mean response
// time (it starts every job immediately instead of parking it).
func TestRepartitioningBeatsFrozenWaves(t *testing.T) {
	apps := workload.NPB()
	arr := make([]Arrival, 0, 12)
	for i := 0; i < 12; i++ {
		arr = append(arr, Arrival{Time: float64(i) * 2e8, App: apps[i%len(apps)]})
	}
	run := func(mk func() (Policy, error)) *Result {
		t.Helper()
		pol, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		rep, err := NewReplay(arr)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Simulate(Scenario{Platform: model.TaihuLight(), Arrivals: rep, Policy: pol})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	dyn := run(func() (Policy, error) { return NewHeuristicPolicy(sched.DominantMinRatio, 0) })
	frozen := run(func() (Policy, error) { return NewNoRepartition(sched.DominantMinRatio, 0) })
	if frozen.Wait.Max == 0 {
		t.Errorf("expected mid-wave arrivals to wait under the frozen policy")
	}
	if dyn.Wait.Max != 0 {
		t.Errorf("dynamic policy parked a job: max wait %v", dyn.Wait.Max)
	}
	if dyn.Repartitions <= frozen.Repartitions {
		t.Errorf("dynamic policy repartitioned %d times, frozen %d: expected more churn", dyn.Repartitions, frozen.Repartitions)
	}
}

// TestQueueing: MaxResident bounds concurrency; excess jobs wait and
// the wait shows up in the metrics and the occupancy log.
func TestQueueing(t *testing.T) {
	apps := workload.NPB()
	res, err := Simulate(Scenario{
		Platform:    model.TaihuLight(),
		Arrivals:    atZero(t, apps),
		Policy:      mustHeuristic(t, sched.DominantMinRatio),
		MaxResident: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxQueue != len(apps)-2 {
		t.Errorf("max queue %d, want %d", res.MaxQueue, len(apps)-2)
	}
	if res.Wait.Max <= 0 {
		t.Errorf("expected positive waits with a full node, got max %v", res.Wait.Max)
	}
	for _, ev := range res.Events {
		if ev.Resident > 2 {
			t.Errorf("event %d: %d residents exceed MaxResident=2", ev.Seq, ev.Resident)
		}
	}
	// All jobs must still finish, in bounded-sharing FIFO order of
	// admission.
	for i, j := range res.Jobs {
		if math.IsNaN(j.Finish) {
			t.Errorf("job %d never finished", i)
		}
	}
}

// TestEventLogShape: the log is Seq-dense, time-ordered, and every job
// has exactly one arrival, one start and one finish in causal order.
func TestEventLogShape(t *testing.T) {
	sp := Spec{
		Arrivals:    ArrivalSpec{Process: "gamma", Shape: 0.5, Scale: 4e8, Burst: 3, N: 18},
		Policy:      "DominantMinRatio",
		MaxResident: 4,
		Seed:        5,
	}
	sc, err := sp.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(sc)
	if err != nil {
		t.Fatal(err)
	}
	type causal struct{ arrival, start, finish int }
	counts := make(map[int]*causal)
	prevT := 0.0
	for i, ev := range res.Events {
		if ev.Seq != i {
			t.Fatalf("event %d has Seq %d", i, ev.Seq)
		}
		if ev.Time < prevT {
			t.Fatalf("event %d: time %v before %v", i, ev.Time, prevT)
		}
		prevT = ev.Time
		if ev.Job < 0 {
			if ev.Kind != EventRepartition {
				t.Fatalf("event %d: job -1 with kind %v", i, ev.Kind)
			}
			continue
		}
		c := counts[ev.Job]
		if c == nil {
			c = &causal{}
			counts[ev.Job] = c
		}
		switch ev.Kind {
		case EventArrival:
			c.arrival++
		case EventStart:
			if c.arrival != 1 {
				t.Fatalf("job %d started before arriving", ev.Job)
			}
			c.start++
		case EventFinish:
			if c.start != 1 {
				t.Fatalf("job %d finished before starting", ev.Job)
			}
			c.finish++
		}
	}
	if len(counts) != 18 {
		t.Fatalf("log covers %d jobs, want 18", len(counts))
	}
	for id, c := range counts {
		if c.arrival != 1 || c.start != 1 || c.finish != 1 {
			t.Fatalf("job %d: arrival/start/finish = %d/%d/%d", id, c.arrival, c.start, c.finish)
		}
	}
}

// TestDurationCutoff: arrivals beyond Duration are discarded and
// counted; admitted jobs still run to completion.
func TestDurationCutoff(t *testing.T) {
	sp := Spec{
		Arrivals: ArrivalSpec{Process: "batch", Interval: 1e9, Size: 2, N: 10},
		Policy:   "DominantMinRatio",
		Duration: 2.5e9,
	}
	sc, err := sp.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 6 || res.Truncated != 4 {
		t.Fatalf("got %d jobs, %d truncated; want 6 admitted, 4 truncated", len(res.Jobs), res.Truncated)
	}
}

// TestMetricsConsistency checks the invariants linking per-job metrics
// and the platform integrals.
func TestMetricsConsistency(t *testing.T) {
	sp := Spec{
		Arrivals: ArrivalSpec{Process: "ipoisson", BaseRate: 2e-9, Amplitude: 1.5e-9, Period: 5e9, N: 30},
		Policy:   "DominantRevMaxRatio",
		Seed:     3,
	}
	sc, err := sp.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(sc)
	if err != nil {
		t.Fatal(err)
	}
	pl := sc.Platform
	if u := res.Utilization(pl); u <= 0 || u > 1+1e-9 {
		t.Errorf("utilization %v outside (0, 1]", u)
	}
	if c := res.MeanCacheOccupancy(); c <= 0 || c > 1+1e-9 {
		t.Errorf("cache occupancy %v outside (0, 1]", c)
	}
	for _, j := range res.Jobs {
		if j.Wait < 0 || j.Response < j.Wait {
			t.Errorf("job %d: wait %v response %v inconsistent", j.Job, j.Wait, j.Response)
		}
		if j.Stretch < 1-1e-9 {
			t.Errorf("job %d: stretch %v below 1 (faster than the dedicated machine?)", j.Job, j.Stretch)
		}
		if j.Finish > res.Makespan {
			t.Errorf("job %d finishes at %v after makespan %v", j.Job, j.Finish, res.Makespan)
		}
	}
}

// TestPolicyBudgetEnforcement: a policy overrunning the processor
// budget is rejected with a clear error rather than silently
// oversubscribing the node.
func TestPolicyBudgetEnforcement(t *testing.T) {
	over := policyFunc(func(pl model.Platform, residents []Resident) ([]sched.Assignment, error) {
		asg := make([]sched.Assignment, len(residents))
		for i := range asg {
			asg[i] = sched.Assignment{Processors: pl.Processors, CacheShare: 0}
		}
		return asg, nil
	})
	_, err := Simulate(Scenario{
		Platform: model.TaihuLight(),
		Arrivals: atZero(t, workload.NPB()),
		Policy:   over,
	})
	if err == nil {
		t.Fatal("oversubscribing policy accepted")
	}
}

// TestZeroAllocationDeadlock: a policy that never grants processors
// must surface as a deadlock error, not an infinite loop.
func TestZeroAllocationDeadlock(t *testing.T) {
	starve := policyFunc(func(pl model.Platform, residents []Resident) ([]sched.Assignment, error) {
		return make([]sched.Assignment, len(residents)), nil
	})
	_, err := Simulate(Scenario{
		Platform: model.TaihuLight(),
		Arrivals: atZero(t, workload.NPB()[:2]),
		Policy:   starve,
	})
	if err == nil {
		t.Fatal("starving policy accepted")
	}
}

// policyFunc adapts a function to the Policy interface for tests.
type policyFunc func(model.Platform, []Resident) ([]sched.Assignment, error)

func (f policyFunc) Allocate(pl model.Platform, r []Resident) ([]sched.Assignment, error) {
	return f(pl, r)
}
func (f policyFunc) Name() string { return "test" }

func mustHeuristic(t *testing.T, h sched.Heuristic) Policy {
	t.Helper()
	p, err := NewHeuristicPolicy(h, 0)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// brokenProcess emits a hand-written arrival sequence, bypassing the
// validated constructors, to probe the engine's defenses against
// misbehaving custom ArrivalProcess implementations.
type brokenProcess struct {
	arrivals []Arrival
	i        int
}

func (b *brokenProcess) Next() (Arrival, bool) {
	if b.i >= len(b.arrivals) {
		return Arrival{}, false
	}
	a := b.arrivals[b.i]
	b.i++
	return a, true
}

func (b *brokenProcess) Name() string { return "broken" }

// TestMisbehavingProcessErrors: a custom process that violates the
// interface contract (backwards or non-finite times, invalid apps)
// must fail the run with an error — never a panic, never a silently
// truncated stream.
func TestMisbehavingProcessErrors(t *testing.T) {
	app := workload.NPB()[0]
	for name, arr := range map[string][]Arrival{
		"backwards": {{Time: 5e9, App: app}, {Time: 1e9, App: app}},
		"nan time":  {{Time: 0, App: app}, {Time: math.NaN(), App: app}},
		"bad app":   {{Time: 0, App: app}, {Time: 1}},
	} {
		_, err := Simulate(Scenario{
			Platform: model.TaihuLight(),
			Arrivals: &brokenProcess{arrivals: arr},
			Policy:   mustHeuristic(t, sched.DominantMinRatio),
		})
		if err == nil {
			t.Errorf("%s: misbehaving process accepted", name)
		}
	}
}

// TestSequentialPolicyRejected: AllProcCache cannot drive online mode.
func TestSequentialPolicyRejected(t *testing.T) {
	if _, err := NewHeuristicPolicy(sched.AllProcCache, 0); err == nil {
		t.Error("AllProcCache accepted as a repartitioning policy")
	}
	if _, err := NewNoRepartition(sched.AllProcCache, 0); err == nil {
		t.Error("AllProcCache accepted as a wave policy")
	}
}
