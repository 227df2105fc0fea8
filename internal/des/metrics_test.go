package des

import (
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/sched"
)

// metricsSpec is the shared scenario of the instrumentation tests: a
// capped node under a Poisson stream, so arrivals queue, waves drain,
// and the replanning fast path actually fires.
func metricsSpec(policy string) Spec {
	return Spec{
		Arrivals:    ArrivalSpec{Process: "poisson", Rate: 4e-9, N: 24},
		Policy:      policy,
		MaxResident: 4,
		Seed:        42,
	}
}

// TestMetricsDoNotPerturbEventLog is the DES non-perturbation gate: a
// metrics-and-tracer-instrumented run must produce an event log
// bit-identical to a bare run.
func TestMetricsDoNotPerturbEventLog(t *testing.T) {
	for _, policy := range []string{"DominantMinRatio", "portfolio"} {
		bare, err := Simulate(mustBuild(t, metricsSpec(policy)))
		if err != nil {
			t.Fatal(err)
		}
		sc := mustBuild(t, metricsSpec(policy))
		m := NewMetrics(obs.NewRegistry())
		m.Tracer = obs.NewTracer()
		sc.Metrics = m
		instrumented, err := Simulate(sc)
		if err != nil {
			t.Fatal(err)
		}
		if len(bare.Events) != len(instrumented.Events) {
			t.Fatalf("%s: event count %d != %d", policy, len(instrumented.Events), len(bare.Events))
		}
		for i := range bare.Events {
			if bare.Events[i] != instrumented.Events[i] {
				t.Fatalf("%s: event %d differs: %+v != %+v", policy, i,
					instrumented.Events[i], bare.Events[i])
			}
		}
		if bare.Makespan != instrumented.Makespan {
			t.Errorf("%s: makespan %v != %v", policy, instrumented.Makespan, bare.Makespan)
		}
	}
}

func mustBuild(t *testing.T, sp Spec) Scenario {
	t.Helper()
	sc, err := sp.Build()
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestMetricsCountsMatchResult cross-checks every counter against the
// run's own Result, and lints the exposition.
func TestMetricsCountsMatchResult(t *testing.T) {
	reg := obs.NewRegistry()
	sc := mustBuild(t, metricsSpec("DominantMinRatio"))
	m := NewMetrics(reg)
	m.Tracer = obs.NewTracer()
	sc.Metrics = m
	res, err := Simulate(sc)
	if err != nil {
		t.Fatal(err)
	}

	byKind := map[string]float64{}
	byName := map[string]float64{}
	for _, s := range reg.Snapshot() {
		if s.Name == "des_events_total" {
			byKind[s.LabelValue] = s.Value
			continue
		}
		byName[s.Name] = s.Value
	}
	wantKind := map[string]int{}
	for _, ev := range res.Events {
		wantKind[ev.Kind.String()]++
	}
	for kind, want := range wantKind {
		if got := byKind[kind]; got != float64(want) {
			t.Errorf("des_events_total{kind=%q} = %v, want %d", kind, got, want)
		}
	}
	if got := byName["des_simulations_total"]; got != 1 {
		t.Errorf("des_simulations_total = %v, want 1", got)
	}
	if got := byName["des_jobs_total"]; got != float64(len(res.Jobs)) {
		t.Errorf("des_jobs_total = %v, want %d", got, len(res.Jobs))
	}
	if got := byName["des_job_wait"]; got != float64(len(res.Jobs)) {
		t.Errorf("des_job_wait count = %v, want %d", got, len(res.Jobs))
	}
	if got := byName["des_job_stretch"]; got != float64(len(res.Jobs)) {
		t.Errorf("des_job_stretch count = %v, want %d", got, len(res.Jobs))
	}
	if got := byName["des_allocate_seconds"]; got == 0 {
		t.Error("des_allocate_seconds recorded no policy calls")
	}
	// The drained node ends with nothing resident or queued.
	if got := byName["des_resident_jobs"]; got != 0 {
		t.Errorf("des_resident_jobs = %v at drain, want 0", got)
	}
	if got := byName["des_queue_depth"]; got != 0 {
		t.Errorf("des_queue_depth = %v at drain, want 0", got)
	}
	fastFull := byName["des_replan_fastpath_total"] + byName["des_replan_fullsolve_total"]
	if want := float64(res.Replan.FastPath + res.Replan.FullSolve); fastFull != want {
		t.Errorf("replan fast+full = %v, want %v", fastFull, want)
	}
	if m.Tracer.Len() == 0 {
		t.Error("tracer recorded no events")
	}

	var sb strings.Builder
	if err := reg.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	if errs := obs.LintProm(strings.NewReader(sb.String())); len(errs) != 0 {
		t.Errorf("des exposition fails lint: %v", errs)
	}
}

// TestReplanReporterImplementations pins the named interface the engine
// asserts: the replanning policies implement it, the wave policy does
// not, and a run with a non-implementing policy leaves Replan zero.
func TestReplanReporterImplementations(t *testing.T) {
	hp, err := ParsePolicy("DominantMinRatio", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := hp.(ReplanReporter); !ok {
		t.Error("HeuristicPolicy does not implement ReplanReporter")
	}
	pp, err := ParsePolicy("portfolio", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := pp.(ReplanReporter); !ok {
		t.Error("PortfolioPolicy does not implement ReplanReporter")
	}
	nr, err := ParsePolicy("norepartition:DominantMinRatio", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := nr.(ReplanReporter); ok {
		t.Error("NoRepartition unexpectedly implements ReplanReporter — its telemetry would be meaningless")
	}

	// An implementing policy populates Result.Replan...
	res, err := Simulate(mustBuild(t, metricsSpec("DominantMinRatio")))
	if err != nil {
		t.Fatal(err)
	}
	if res.Replan.FastPath+res.Replan.FullSolve == 0 {
		t.Error("HeuristicPolicy run reported zero replan telemetry")
	}
	// ...and a non-implementing one leaves it zero.
	res, err = Simulate(mustBuild(t, metricsSpec("norepartition:DominantMinRatio")))
	if err != nil {
		t.Fatal(err)
	}
	if res.Replan != (ReplanStats{}) {
		t.Errorf("NoRepartition run reported replan telemetry: %+v", res.Replan)
	}
}

// TestMemoEvictionTelemetry drives a tiny memo past capacity and checks
// evictions surface through MemoStats and ReplanStats.
func TestMemoEvictionTelemetry(t *testing.T) {
	sc := mustBuild(t, Spec{
		Arrivals:    ArrivalSpec{Process: "poisson", Rate: 4e-9, N: 48},
		Policy:      "DominantMinRatio",
		MaxResident: 3,
		Seed:        7,
	})
	hp := sc.Policy.(*HeuristicPolicy)
	hp.memo = sched.NewPlanMemo(2)
	res, err := Simulate(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Replan.MemoEvictions == 0 {
		t.Error("tiny memo reported zero evictions on a 48-job stream")
	}
}
