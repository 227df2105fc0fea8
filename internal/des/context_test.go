package des

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/solve"
	"repro/internal/workload"
)

// pollCtx cancels itself after a fixed number of Err() polls; the event
// loop polls every ctxCheckEvery events, so cancellation lands at a
// deterministic point mid-run.
type pollCtx struct {
	context.Context
	polls atomic.Int64
	after int64
}

func (c *pollCtx) Err() error {
	if c.polls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}
func (c *pollCtx) Done() <-chan struct{} { return nil }

func ctxScenario(t *testing.T) Scenario {
	t.Helper()
	apps := workload.NPB()
	for i := range apps {
		apps[i].SeqFraction = 0.05
	}
	factory, err := CycleApps(apps)
	if err != nil {
		t.Fatal(err)
	}
	arr, err := NewPoisson(0.002, 48, factory, solve.NewRNG(11))
	if err != nil {
		t.Fatal(err)
	}
	pol, err := NewHeuristicPolicy(sched.DominantMinRatio, 11)
	if err != nil {
		t.Fatal(err)
	}
	return Scenario{Platform: model.TaihuLight(), Arrivals: arr, Policy: pol}
}

// TestSimulateContextCancelMidRun: cancelling mid-run returns
// context.Canceled within ctxCheckEvery events, and an uncancelled
// rerun reproduces the reference event log bit-for-bit.
func TestSimulateContextCancelMidRun(t *testing.T) {
	ref, err := Simulate(ctxScenario(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Events) < 4*ctxCheckEvery {
		t.Fatalf("reference run too short (%d events) to observe a mid-run cancel", len(ref.Events))
	}

	ctx := &pollCtx{Context: context.Background(), after: 2}
	res, err := SimulateContext(ctx, ctxScenario(t))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("returned (%v, %v), want context.Canceled", res, err)
	}
	// The loop may run at most ctxCheckEvery steps past the poll that
	// observed the cancellation... it cannot have finished the run.
	if got := ctx.polls.Load(); got > int64(len(ref.Events)) {
		t.Fatalf("cancellation was not prompt: %d polls for a %d-event run", got, len(ref.Events))
	}

	again, err := Simulate(ctxScenario(t))
	if err != nil {
		t.Fatal(err)
	}
	if again.Makespan != ref.Makespan || len(again.Events) != len(ref.Events) {
		t.Fatalf("rerun diverged after cancellation: %v/%d vs %v/%d",
			again.Makespan, len(again.Events), ref.Makespan, len(ref.Events))
	}
	for i := range again.Events {
		if again.Events[i] != ref.Events[i] {
			t.Fatalf("event %d diverged: %+v vs %+v", i, again.Events[i], ref.Events[i])
		}
	}
}

// TestSimulateContextPreCancelled: a dead context returns before the
// first event.
func TestSimulateContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SimulateContext(ctx, ctxScenario(t)); !errors.Is(err, context.Canceled) {
		t.Fatalf("returned %v, want context.Canceled", err)
	}
}

// TestPolicyHeuristicErrorTyped: a policy failure names its heuristic
// via *sched.HeuristicError. An impossible workload (more apps than the
// single-processor platform can grant whole processors is fine for the
// rational heuristics, so use an invalid heuristic id instead).
func TestPolicyHeuristicErrorTyped(t *testing.T) {
	p, err := NewHeuristicPolicy(sched.Heuristic(88), 1)
	if err != nil {
		t.Fatal(err)
	}
	apps := workload.NPB()
	residents := []Resident{{Job: 0, App: apps[0], Remaining: 1}}
	_, err = p.Allocate(model.TaihuLight(), residents)
	var herr *sched.HeuristicError
	if !errors.As(err, &herr) {
		t.Fatalf("policy error %T (%v), want *sched.HeuristicError", err, err)
	}
	if herr.Heuristic != sched.Heuristic(88) {
		t.Fatalf("recorded heuristic %v", herr.Heuristic)
	}
}

// TestValidatePolicyMatchesParse: ValidatePolicy accepts exactly the
// specifications ParsePolicy builds, and rejects the others with
// ParsePolicy's error. The empty spec is the default DominantMinRatio
// policy; ":full" names no policy and stays an error.
func TestValidatePolicyMatchesParse(t *testing.T) {
	for _, spec := range []string{
		"portfolio", "portfolio:full", "portfolio:selector", "portfolio:selector:full",
		"Fair", "RandomPart:full", "norepartition", "norepartition:Fair",
		"", ":full", "bogus", "AllProcCache", "AllProcCache:full", "norepartition:AllProcCache",
		"norepartition:full", "norepartition:Fair:full", "norepartition:bogus", "portfolio:bogus",
	} {
		pol, parseErr := ParsePolicy(spec, 1)
		err := ValidatePolicy(spec)
		if (err == nil) != (parseErr == nil) || err != nil && err.Error() != parseErr.Error() {
			t.Errorf("ValidatePolicy(%q) = %v, ParsePolicy error %v", spec, err, parseErr)
		}
		switch spec {
		case "":
			if parseErr != nil || pol.Name() != "heuristic:DominantMinRatio" {
				t.Errorf("ParsePolicy(%q) = %v, %v; want the DominantMinRatio policy", spec, pol, parseErr)
			}
		case ":full":
			if parseErr == nil {
				t.Errorf("ParsePolicy(%q) accepted a spec that names no policy", spec)
			}
		}
	}
}
