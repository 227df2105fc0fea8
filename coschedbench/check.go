package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"

	repro "repro"
	"repro/internal/fleet"
	"repro/internal/serve"
)

// serviceSeed is coschedd's default -seed, the base every tenant seed
// derives from.
const serviceSeed = 0

// oracle computes the answers coschedd must give, off the clock, on
// clients of its own: one per tenant, seeded with that tenant's
// serve.TenantSeed, single-worker and uncached.
type oracle struct {
	clients map[string]*repro.Client
}

func newOracle() *oracle {
	o := &oracle{clients: map[string]*repro.Client{}}
	for _, t := range tenants {
		o.clients[t] = repro.NewClient(
			repro.WithSeed(serve.TenantSeed(serviceSeed, t)),
			repro.WithWorkers(1),
			repro.WithCache(false),
		)
	}
	return o
}

// scenarioOf resolves a schedule request the way the service does.
func scenarioOf(r *request) (repro.PortfolioScenario, error) {
	var sj serve.ScenarioWire
	if err := json.Unmarshal(r.body, &sj); err != nil {
		return repro.PortfolioScenario{}, err
	}
	return sj.Scenario(serve.Defaults{Platform: repro.TaihuLight(), Seed: serve.TenantSeed(serviceSeed, r.tenant)})
}

// checkSchedule: the reply's heuristic, makespan and assignments must
// equal Client.Best on the same scenario under the tenant's seed.
func (o *oracle) checkSchedule(ctx context.Context, r *request, reply []byte) error {
	sc, err := scenarioOf(r)
	if err != nil {
		return err
	}
	_, rep, err := o.clients[r.tenant].Best(ctx, sc.Platform, sc.Apps)
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	want := serve.ScheduleOf(sc, rep.BestResult())
	var got serve.ScheduleWire
	if err := json.Unmarshal(reply, &got); err != nil {
		return fmt.Errorf("decoding reply: %w", err)
	}
	if !reflect.DeepEqual(want, got) {
		return fmt.Errorf("schedule mismatch: got %s makespan %v, want %s makespan %v",
			got.Heuristic, got.Makespan, want.Heuristic, want.Makespan)
	}
	return nil
}

// checkFleet: the reply must route the whole stream and equal the
// summary of a direct fleet.Simulate of the same spec at one worker —
// the worker-count invariance promise.
func checkFleet(ctx context.Context, r *request, reply []byte) error {
	sp, err := fleet.DecodeSpec(bytes.NewReader(r.body))
	if err != nil {
		return err
	}
	sc, err := sp.Build(1)
	if err != nil {
		return err
	}
	res, err := fleet.SimulateContext(ctx, sc)
	if err != nil {
		return fmt.Errorf("direct simulate: %w", err)
	}
	want := serve.FleetSummaryOf(sc, res)
	var got serve.FleetSummaryWire
	if err := json.Unmarshal(reply, &got); err != nil {
		return fmt.Errorf("decoding reply: %w", err)
	}
	if got.Jobs != sp.Arrivals.N {
		return fmt.Errorf("fleet reply routed %d jobs of %d", got.Jobs, sp.Arrivals.N)
	}
	if !reflect.DeepEqual(want, got) {
		return fmt.Errorf("fleet summary differs from the 1-worker simulation (makespan %v vs %v)", got.Makespan, want.Makespan)
	}
	return nil
}

// verifyAll runs check(i) for i in [0, n) on every CPU and returns how
// many failed, with the first error in index order.
func verifyAll(n int, check func(i int) error) (failed int, first error) {
	for i, err := range forEach(n, check) {
		if err != nil {
			failed++
			if first == nil {
				first = fmt.Errorf("op %d: %w", i, err)
			}
		}
	}
	return failed, first
}

// forEach runs fn(i) for i in [0, n) on one goroutine per P, handing
// out indices one at a time so a slower CPU takes fewer of them, and
// returns each call's error.
func forEach(n int, fn func(i int) error) []error {
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	return errs
}
