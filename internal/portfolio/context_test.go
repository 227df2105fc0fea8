package portfolio

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/workload"
)

func npbScenario(seed uint64) Scenario {
	apps := workload.NPB()
	for i := range apps {
		apps[i].SeqFraction = 0.05
	}
	return Scenario{Platform: model.TaihuLight(), Apps: apps, Seed: seed}
}

// TestEvaluateBatchContextPreCancelled: an already-cancelled context
// runs nothing; every result carries ctx.Err() and the call returns it.
func TestEvaluateBatchContextPreCancelled(t *testing.T) {
	eng := New(Config{Workers: 4, Cache: NewCache()})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	reports, err := eng.EvaluateBatchContext(ctx, []Scenario{npbScenario(1), npbScenario(2)})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("returned %v, want context.Canceled", err)
	}
	for si, rep := range reports {
		if rep.Best != -1 {
			t.Fatalf("scenario %d picked best %d from a cancelled batch", si, rep.Best)
		}
		for _, res := range rep.Results {
			if !errors.Is(res.Err, context.Canceled) {
				t.Fatalf("scenario %d %v: err %v, want context.Canceled", si, res.Heuristic, res.Err)
			}
			if res.Schedule != nil {
				t.Fatalf("scenario %d %v: schedule computed under cancelled ctx", si, res.Heuristic)
			}
		}
	}
	// Nothing may be cached: a later live-context call must compute.
	rep, err := eng.EvaluateContext(context.Background(), npbScenario(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range rep.Results {
		if res.Err != nil {
			t.Fatalf("%v failed after cancellation: %v", res.Heuristic, res.Err)
		}
	}
}

// pollCtx cancels itself after a fixed number of Err() polls, giving a
// deterministic "cancelled mid-computation" without timing races.
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

// TestCacheNotPoisonedByCancellation forces the cancellation to land
// *inside* a heuristic computation (LocalSearch polls ctx per toggle),
// so the cache sees a compute that returned ctx.Err() — and must evict
// it rather than serve the stale cancellation to future callers.
func TestCacheNotPoisonedByCancellation(t *testing.T) {
	eng := New(Config{Workers: 1, Cache: NewCache()})
	sc := npbScenario(5)
	sc.Heuristics = []sched.Heuristic{sched.LocalSearch}

	ctx := &pollCtx{Context: context.Background(), after: 4}
	rep, err := eng.EvaluateContext(ctx, sc)
	if !errors.Is(err, context.Canceled) && rep.Results[0].Err == nil {
		t.Skip("cancellation did not land inside the computation") // after-threshold too high for this input
	}

	rep, err = eng.EvaluateContext(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	res := rep.Results[0]
	if res.Err != nil {
		t.Fatalf("cache served a poisoned entry: %v", res.Err)
	}
	if res.Schedule == nil {
		t.Fatal("no schedule after recovery")
	}
	// And now it memoizes normally.
	rep, err = eng.EvaluateContext(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Results[0].FromCache {
		t.Fatal("recovered entry did not memoize")
	}
}

// TestEvaluateBatchContextDeterminism: a cancelled batch never corrupts
// later results — the engine's output for a fresh context matches a
// fresh engine bit-for-bit.
func TestEvaluateBatchContextDeterminism(t *testing.T) {
	eng := New(Config{Workers: 8, Cache: NewCache()})
	scs := make([]Scenario, 32)
	for i := range scs {
		scs[i] = npbScenario(uint64(i))
		scs[i].Apps[0].Work *= 1 + float64(i)/13
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.EvaluateBatchContext(ctx, scs); !errors.Is(err, context.Canceled) {
		t.Fatalf("returned %v", err)
	}

	got, err := eng.EvaluateBatchContext(context.Background(), scs)
	if err != nil {
		t.Fatal(err)
	}
	want := New(Config{Workers: 1}).EvaluateBatch(scs)
	for i := range want {
		wb, gb := want[i].BestResult(), got[i].BestResult()
		if wb == nil || gb == nil {
			t.Fatalf("scenario %d: missing best (want %v, got %v)", i, wb, gb)
		}
		if wb.Schedule.Makespan != gb.Schedule.Makespan {
			t.Fatalf("scenario %d: %v != %v after cancellation", i, gb.Schedule.Makespan, wb.Schedule.Makespan)
		}
	}
}

// TestHeuristicErrorWrapping: per-heuristic failures carry
// *sched.HeuristicError naming the policy.
func TestHeuristicErrorWrapping(t *testing.T) {
	eng := New(Config{Workers: 1, Cache: NewCache()})
	sc := npbScenario(1)
	sc.Heuristics = []sched.Heuristic{sched.Heuristic(77)}
	rep, err := eng.Evaluate(sc)
	if err != nil {
		t.Fatal(err)
	}
	var herr *sched.HeuristicError
	if !errors.As(rep.Results[0].Err, &herr) {
		t.Fatalf("result error %T (%v), want *sched.HeuristicError", rep.Results[0].Err, rep.Results[0].Err)
	}
	if herr.Heuristic != sched.Heuristic(77) {
		t.Fatalf("recorded heuristic %v", herr.Heuristic)
	}
}

// TestEvaluateStreamOrderedWindow: the dispatcher emits every report in
// input order, identical to a serial batch's, while never holding more
// than 2×Workers scenarios pulled but not yet emitted.
func TestEvaluateStreamOrderedWindow(t *testing.T) {
	const workers, n = 3, 40
	scenarios := make([]Scenario, n)
	for i := range scenarios {
		scenarios[i] = npbScenario(uint64(i))
		scenarios[i].Apps[0].Work *= 1 + float64(i)/7
	}
	var pulled atomic.Int64
	seq := func(yield func(Scenario) bool) {
		for _, sc := range scenarios {
			pulled.Add(1)
			if !yield(sc) {
				return
			}
		}
	}
	var got []*Report
	err := New(Config{Workers: workers}).EvaluateStream(context.Background(), seq, func(i int, rep *Report) error {
		if i != len(got) {
			t.Fatalf("emitted position %d after %d reports", i, len(got))
		}
		if p := pulled.Load(); p-int64(i) > 2*workers {
			t.Errorf("%d scenarios pulled at emit %d, window %d", p, i, 2*workers)
		}
		got = append(got, rep)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("emitted %d reports for %d scenarios", len(got), n)
	}
	requireSameReports(t, New(Config{Workers: 1}).EvaluateBatch(scenarios), got)
}

// TestEvaluateStreamCancelEmitsPulled: cancelling a stream stops the
// pulling, still emits every scenario already pulled, in order, and
// returns ctx.Err() only after the iterator has returned.
func TestEvaluateStreamCancelEmitsPulled(t *testing.T) {
	for _, workers := range []int{1, 2} {
		ctx, cancel := context.WithCancel(context.Background())
		var pulled atomic.Int64
		var returned atomic.Bool
		seq := func(yield func(Scenario) bool) {
			defer returned.Store(true)
			for i := 0; ; i++ { // unbounded: only cancellation ends it
				pulled.Add(1)
				if !yield(npbScenario(uint64(i))) {
					return
				}
			}
		}
		emitted := 0
		err := New(Config{Workers: workers}).EvaluateStream(ctx, seq, func(i int, _ *Report) error {
			if i != emitted {
				t.Fatalf("%d workers: emitted position %d after %d reports", workers, i, emitted)
			}
			if emitted++; emitted == 3 {
				cancel()
			}
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%d workers: returned %v, want context.Canceled", workers, err)
		}
		if !returned.Load() {
			t.Errorf("%d workers: the iterator was still running after the call returned", workers)
		}
		if p := int(pulled.Load()); emitted != p || emitted > 3+2*workers {
			t.Errorf("%d workers: emitted %d of %d pulled scenarios after cancelling at 3, want all, at most %d", workers, emitted, p, 3+2*workers)
		}
	}
}
