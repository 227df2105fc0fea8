package repro

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/selector"
)

// testApps returns a distinct workload per index, so batch scenarios
// cannot collapse into one memoized cell.
func testApps(i int) []Application {
	apps := NPB()
	for j := range apps {
		apps[j].SeqFraction = 0.05
		apps[j].Work *= 1 + float64(i)/97
	}
	return apps
}

// waitGoroutines polls until the goroutine count drops back to the
// baseline (small slack for runtime helpers); it fails the test with a
// stack dump if leaked goroutines persist.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutines leaked: %d before, %d after\n%s", before, runtime.NumGoroutine(), buf)
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// pollCancelCtx is a deterministic cancellation source: it reports
// context.Canceled starting from the (after+1)-th Err poll. The layers
// under test poll Err in their loops, so this cancels "mid-run" without
// any timing dependence.
type pollCancelCtx struct {
	context.Context
	polls atomic.Int64
	after int64
}

func (c *pollCancelCtx) Err() error {
	if c.polls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

func (c *pollCancelCtx) Done() <-chan struct{} {
	// The poll-driven layers never block on Done; returning nil keeps
	// selects (which treat nil as "never ready") from firing early.
	return nil
}

func TestClientOptions(t *testing.T) {
	c := NewClient(WithWorkers(3), WithHeuristics(DominantMinRatio, Fair), WithSeed(7), WithCache(false))
	if c.Workers() != 3 {
		t.Fatalf("workers = %d, want 3", c.Workers())
	}
	if st := c.Engine().CacheStats(); st.Hits != 0 || st.Misses != 0 || st.Entries != 0 {
		t.Fatalf("cache disabled but stats %+v", st)
	}
	pl := TaihuLight()
	_, rep, err := c.Best(context.Background(), pl, testApps(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 2 {
		t.Fatalf("%d results, want the 2 configured heuristics", len(rep.Results))
	}
}

// TestWithMetrics: an instrumented client produces bit-identical
// results to a bare one while its registry observes both the portfolio
// race and the online simulation; a nil registry is accepted and means
// off.
func TestWithMetrics(t *testing.T) {
	ctx := context.Background()
	pl := TaihuLight()
	apps := testApps(0)

	bare, _, err := NewClient(WithCache(false)).Best(ctx, pl, apps)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewMetricsRegistry()
	c := NewClient(WithCache(false), WithMetrics(reg))
	got, _, err := c.Best(ctx, pl, apps)
	if err != nil {
		t.Fatal(err)
	}
	if got.Makespan != bare.Makespan {
		t.Errorf("instrumented Best makespan %v != bare %v", got.Makespan, bare.Makespan)
	}

	factory, err := CycleJobs(apps[:2])
	if err != nil {
		t.Fatal(err)
	}
	arr, err := PoissonArrivals(2e-9, 6, factory, NewRNG(42))
	if err != nil {
		t.Fatal(err)
	}
	pol, err := HeuristicRepartition(DominantMinRatio, 42)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.SimulateOnline(ctx, OnlineScenario{Platform: pl, Arrivals: arr, Policy: pol}); err != nil {
		t.Fatal(err)
	}

	byName := map[string]float64{}
	for _, s := range reg.Snapshot() {
		byName[s.Name] += s.Value
	}
	if byName["portfolio_batches_total"] == 0 {
		t.Error("registry missed the portfolio race")
	}
	if byName["des_simulations_total"] == 0 {
		t.Error("registry missed the online simulation")
	}

	// A nil registry is the documented off switch.
	off := NewClient(WithMetrics(nil))
	if _, _, err := off.Best(ctx, pl, apps); err != nil {
		t.Fatal(err)
	}
}

func TestClientScheduleMatchesDirect(t *testing.T) {
	c := NewClient()
	pl := TaihuLight()
	apps := testApps(0)
	got, err := c.Schedule(context.Background(), DominantMinRatio, pl, apps)
	if err != nil {
		t.Fatal(err)
	}
	want, err := DominantMinRatio.Schedule(pl, apps, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Makespan != want.Makespan {
		t.Fatalf("client schedule %v != direct %v", got.Makespan, want.Makespan)
	}
}

func TestClientTypedErrors(t *testing.T) {
	c := NewClient()
	ctx := context.Background()

	// Invalid platform → *ValidationError across the engine boundary.
	_, _, err := c.Best(ctx, Platform{}, testApps(0))
	var verr *ValidationError
	if !errors.As(err, &verr) {
		t.Fatalf("invalid platform returned %T (%v), want *ValidationError", err, err)
	}
	if verr.Field != "platform.processors" {
		t.Fatalf("field %q, want platform.processors", verr.Field)
	}

	// Unknown heuristic on a valid scenario → *HeuristicError.
	_, err = c.Schedule(ctx, Heuristic(99), TaihuLight(), testApps(0))
	var herr *HeuristicError
	if !errors.As(err, &herr) {
		t.Fatalf("unknown heuristic returned %T (%v), want *HeuristicError", err, err)
	}
	if herr.Heuristic != Heuristic(99) {
		t.Fatalf("heuristic %v recorded, want Heuristic(99)", herr.Heuristic)
	}

	// Nil/empty schedules → *ValidationError instead of panics.
	if _, err := CATPartition(nil, 20); !errors.As(err, &verr) || verr.Field != "schedule" {
		t.Fatalf("CATPartition(nil): %v", err)
	}
	if _, err := CATPartition(&Schedule{}, 20); !errors.As(err, &verr) || verr.Field != "schedule.assignments" {
		t.Fatalf("CATPartition(empty): %v", err)
	}
	if _, err := RoundProcessors(TaihuLight(), nil, nil); !errors.As(err, &verr) || verr.Field != "schedule" {
		t.Fatalf("RoundProcessors(nil): %v", err)
	}
	if _, err := RoundProcessors(TaihuLight(), nil, &Schedule{}); !errors.As(err, &verr) {
		t.Fatalf("RoundProcessors(empty): %v", err)
	}

	// ErrInfeasible is a sentinel: errors.Is through wrapping.
	if !errors.Is(fmt.Errorf("wrap: %w", ErrInfeasible), ErrInfeasible) {
		t.Fatal("ErrInfeasible does not survive wrapping")
	}
}

// TestEvaluateBatchStreams verifies ordering and bounded-window
// streaming over a scenario iterator.
func TestEvaluateBatchStreams(t *testing.T) {
	c := NewClient(WithWorkers(4))
	pl := TaihuLight()
	const n = 40
	scenarios := func(yield func(PortfolioScenario) bool) {
		for i := 0; i < n; i++ {
			if !yield(PortfolioScenario{Platform: pl, Apps: testApps(i), Seed: uint64(i)}) {
				return
			}
		}
	}
	var got []int
	err := c.EvaluateBatch(context.Background(), scenarios, func(br BatchResult) error {
		if br.Report == nil || br.Report.BestResult() == nil {
			t.Fatalf("scenario %d: no feasible result", br.Index)
		}
		got = append(got, br.Index)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("emitted %d reports, want %d", len(got), n)
	}
	for i, idx := range got {
		if idx != i {
			t.Fatalf("out-of-order emit: position %d got index %d", i, idx)
		}
	}
}

// TestEvaluateBatchCancellation cancels mid-batch and asserts the
// ctx.Err() contract: prompt return, no goroutine leaks, and a fully
// reusable client producing bit-identical results afterwards.
func TestEvaluateBatchCancellation(t *testing.T) {
	before := runtime.NumGoroutine()
	c := NewClient(WithWorkers(2))
	pl := TaihuLight()

	// Reference outcome from an independent client (fresh cache).
	ref, _, err := NewClient().Best(context.Background(), pl, testApps(1000))
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	scenarios := func(yield func(PortfolioScenario) bool) {
		for i := 0; ; i++ { // unbounded stream: only cancellation ends it
			if !yield(PortfolioScenario{Platform: pl, Apps: testApps(i), Seed: uint64(i)}) {
				return
			}
		}
	}
	emitted := 0
	err = c.EvaluateBatch(ctx, scenarios, func(br BatchResult) error {
		emitted++
		if emitted == 3 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled batch returned %v, want context.Canceled", err)
	}
	if emitted < 3 {
		t.Fatalf("emitted %d reports before cancel, want >= 3", emitted)
	}
	// The window bounds how many in-flight reports can still drain
	// after the cancel; anything beyond it would mean the stream kept
	// being pulled.
	if max := 3 + 2*c.Workers() + 1; emitted > max {
		t.Fatalf("emitted %d reports, want <= %d after cancelling at 3", emitted, max)
	}
	waitGoroutines(t, before)

	// The same client must still serve golden-identical results.
	got, _, err := c.Best(context.Background(), pl, testApps(1000))
	if err != nil {
		t.Fatal(err)
	}
	if got.Makespan != ref.Makespan {
		t.Fatalf("post-cancel Best %v != reference %v", got.Makespan, ref.Makespan)
	}
}

// TestEvaluateBatchEmitError stops the stream on the first emit failure
// and returns that error.
func TestEvaluateBatchEmitError(t *testing.T) {
	before := runtime.NumGoroutine()
	c := NewClient(WithWorkers(2))
	pl := TaihuLight()
	boom := errors.New("sink full")
	scenarios := func(yield func(PortfolioScenario) bool) {
		for i := 0; ; i++ {
			if !yield(PortfolioScenario{Platform: pl, Apps: testApps(i), Seed: uint64(i)}) {
				return
			}
		}
	}
	calls := 0
	err := c.EvaluateBatch(context.Background(), scenarios, func(BatchResult) error {
		calls++
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("emit error %v not returned (got %v)", boom, err)
	}
	if calls != 1 {
		t.Fatalf("emit called %d times after failing, want 1", calls)
	}
	waitGoroutines(t, before)
}

// TestSimulateOnlineCancellation cancels the DES event loop
// deterministically (the loop polls ctx.Err every few events) and
// asserts prompt ctx.Err() return plus bit-identical behavior on a
// subsequent uncancelled run.
func TestSimulateOnlineCancellation(t *testing.T) {
	before := runtime.NumGoroutine()
	c := NewClient(WithWorkers(2))
	mkScenario := func() OnlineScenario {
		factory, err := CycleJobs(testApps(0))
		if err != nil {
			t.Fatal(err)
		}
		arr, err := PoissonArrivals(0.002, 64, factory, NewRNG(9))
		if err != nil {
			t.Fatal(err)
		}
		pol, err := HeuristicRepartition(DominantMinRatio, 9)
		if err != nil {
			t.Fatal(err)
		}
		return OnlineScenario{Platform: TaihuLight(), Arrivals: arr, Policy: pol}
	}

	// Reference: full uncancelled run.
	ref, err := c.SimulateOnline(context.Background(), mkScenario())
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Events) < 64 {
		t.Fatalf("reference run too short to cancel mid-way: %d events", len(ref.Events))
	}

	// Cancel after a handful of context polls — well inside the run.
	pctx := &pollCancelCtx{Context: context.Background(), after: 3}
	if _, err := c.SimulateOnline(pctx, mkScenario()); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled simulation returned %v, want context.Canceled", err)
	}
	waitGoroutines(t, before)

	// Rerun uncancelled on the same client: bit-identical event log.
	again, err := c.SimulateOnline(context.Background(), mkScenario())
	if err != nil {
		t.Fatal(err)
	}
	if again.Makespan != ref.Makespan || len(again.Events) != len(ref.Events) {
		t.Fatalf("post-cancel rerun diverged: makespan %v vs %v, %d vs %d events",
			again.Makespan, ref.Makespan, len(again.Events), len(ref.Events))
	}
	for i := range again.Events {
		if again.Events[i] != ref.Events[i] {
			t.Fatalf("event %d diverged after cancellation: %+v vs %+v", i, again.Events[i], ref.Events[i])
		}
	}
}

// TestBestCancellationPreCancelled covers the fast path: an
// already-cancelled context returns before any evaluation.
func TestBestCancellationPreCancelled(t *testing.T) {
	c := NewClient()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := c.Best(ctx, TaihuLight(), testApps(0)); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled Best returned %v", err)
	}
	// And a deadline in the past surfaces DeadlineExceeded.
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	if _, _, err := c.Best(dctx, TaihuLight(), testApps(0)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline returned %v", err)
	}
	// The client is not poisoned: a live context works.
	if _, _, err := c.Best(context.Background(), TaihuLight(), testApps(0)); err != nil {
		t.Fatal(err)
	}
}

// TestClientEngineSharing: an online portfolio policy shares nothing
// with the client's engine. Simulated through the client, it races on
// the simulating goroutine, so the engine counts no race and no
// evaluation, while the client's des metrics still see every replan.
func TestClientEngineSharing(t *testing.T) {
	reg := NewMetricsRegistry()
	c := NewClient(WithWorkers(2), WithMetrics(reg))
	factory, err := CycleJobs(testApps(7))
	if err != nil {
		t.Fatal(err)
	}
	arr, err := BatchArrivals(0, 4, 4, factory)
	if err != nil {
		t.Fatal(err)
	}
	sc := OnlineScenario{
		Platform: TaihuLight(),
		Arrivals: arr,
		Policy:   PortfolioRepartition(0, 3),
	}
	res, err := c.SimulateOnline(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 {
		t.Fatalf("empty result: %+v", res)
	}
	for _, s := range reg.Snapshot() {
		switch s.Name {
		case "portfolio_batches_total", "portfolio_evals_total":
			if s.Value != 0 {
				t.Errorf("%s = %v after an online run, want 0", s.Name, s.Value)
			}
		case "des_allocate_seconds":
			if s.Value == 0 {
				t.Error("the client's des metrics saw no replan")
			}
		}
	}
}

// TestSimulateFleetConcurrent runs several fleets at once on one
// cache-on client, as a server's concurrent connections do. Every run
// races its portfolio node policies on its own goroutine; each result
// must match its serial run on the routing log and every node's event
// log, and the online races must leave the client's memoization cache
// untouched.
func TestSimulateFleetConcurrent(t *testing.T) {
	ctx := context.Background()
	c := NewClient(WithWorkers(2))
	mkScenario := func(run int) FleetScenario {
		factory, err := CycleJobs(testApps(run))
		if err != nil {
			t.Fatal(err)
		}
		arr, err := PoissonArrivals(3e-9, 24, factory, NewRNG(uint64(run)))
		if err != nil {
			t.Fatal(err)
		}
		nodes := make([]FleetNode, 3)
		for i := range nodes {
			nodes[i] = FleetNode{Platform: TaihuLight(), Policy: "portfolio", MaxResident: 3}
		}
		routings := FleetRoutings()
		return FleetScenario{Nodes: nodes, Routing: routings[run%len(routings)], Arrivals: arr, Seed: uint64(run)}
	}

	const runs = 4
	want := make([]*FleetResult, runs)
	for i := range want {
		var err error
		if want[i], err = c.SimulateFleet(ctx, mkScenario(i)); err != nil {
			t.Fatalf("serial run %d: %v", i, err)
		}
	}
	got := make([]*FleetResult, runs)
	errs := make([]error, runs)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = c.SimulateFleet(ctx, mkScenario(i))
		}()
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("concurrent run %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(got[i].Routes, want[i].Routes) {
			t.Errorf("run %d: routing log differs from the serial run", i)
		}
		for n := range want[i].Nodes {
			if !reflect.DeepEqual(got[i].Nodes[n].Result.Events, want[i].Nodes[n].Result.Events) {
				t.Errorf("run %d node %d: event log differs from the serial run", i, n)
			}
		}
	}
	if st := c.Engine().CacheStats(); st.Entries != 0 || st.Hits != 0 || st.Misses != 0 {
		t.Errorf("online races touched the client cache: %+v", st)
	}
}

// TestWithSelector: an armed client serves the ledger's confident
// prediction through Best — a single-heuristic report, bit-identical
// to that heuristic's lane in the full race — while an unarmed client
// falls back to the full race on every Select.
func TestWithSelector(t *testing.T) {
	ctx := context.Background()
	pl := TaihuLight()
	apps := testApps(0)

	// Ground truth: the full race on a plain client.
	plain := NewClient(WithWorkers(2), WithSeed(5))
	full, err := plain.Evaluate(ctx, PortfolioScenario{Platform: pl, Apps: apps, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	winner := full.Results[full.Best]

	// Hand-train the scenario's bucket so the race winner is the
	// confident call.
	bucket := ExtractFeatures(pl, apps).Bucket()
	led := NewSelectorLedger()
	for range [3]struct{}{} {
		if err := led.Ingest(selector.RaceRecord{
			Bucket: bucket, Heuristic: winner.Heuristic.String(), Win: true, Margin: 1,
		}); err != nil {
			t.Fatal(err)
		}
	}

	armed := NewClient(WithWorkers(2), WithSeed(5), WithSelector(led, SelectorThresholds{}))
	s, rep, err := armed.Best(ctx, pl, apps)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 1 || rep.Results[0].Heuristic != winner.Heuristic {
		t.Fatalf("armed Best served %d results (first %v), want only %v",
			len(rep.Results), rep.Results[0].Heuristic, winner.Heuristic)
	}
	if s.Makespan != winner.Schedule.Makespan {
		t.Fatalf("served makespan %v != full-race lane %v", s.Makespan, winner.Schedule.Makespan)
	}
	for i := range winner.Schedule.Assignments {
		if s.Assignments[i] != winner.Schedule.Assignments[i] {
			t.Fatalf("assignment %d differs from the full-race lane", i)
		}
	}

	// Unarmed Select: empty ledger, full race, explicit reason.
	d, err := plain.Select(ctx, PortfolioScenario{Platform: pl, Apps: apps, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if d.Predicted || d.FallbackReason != "no-evidence" {
		t.Fatalf("unarmed Select = %+v, want no-evidence fallback", d)
	}
	if len(d.Report.Results) != len(full.Results) {
		t.Fatalf("fallback raced %d heuristics, want %d", len(d.Report.Results), len(full.Results))
	}
}
