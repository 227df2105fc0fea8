package serve

import (
	"reflect"
	"testing"

	"repro/internal/des"
	"repro/internal/fleet"
	"repro/internal/model"
	"repro/internal/obs"
)

// fleetStreamSpec is the fleet-stream shape: 16 nodes cycling through
// three platforms (the TaihuLight node, a half-size node with a
// quarter of its cache and a double-size node with half its cache),
// portfolio policies capped at four residents, and an n-job Poisson
// stream at 3.5e-8 routed by routing.
func fleetStreamSpec(routing string, n int, seed uint64) *fleet.Spec {
	tl := model.TaihuLight()
	half, double := tl, tl
	half.Processors, half.CacheSize = tl.Processors/2, tl.CacheSize/4
	double.Processors, double.CacheSize = tl.Processors*2, tl.CacheSize/2
	shapes := []model.Platform{tl, half, double}
	nodes := make([]fleet.NodeSpec, 16)
	for k := range nodes {
		pl := shapes[k%len(shapes)]
		ps := des.PlatformSpec{Processors: pl.Processors, CacheSize: pl.CacheSize, LatencyS: pl.LatencyS, LatencyL: pl.LatencyL, Alpha: pl.Alpha}
		nodes[k] = fleet.NodeSpec{Platform: &ps, Policy: "portfolio", MaxResident: 4}
	}
	return &fleet.Spec{
		Nodes:    nodes,
		Routing:  routing,
		Arrivals: des.ArrivalSpec{Process: "poisson", Rate: 3.5e-8, N: n},
		Seed:     seed,
	}
}

// instruments are the observation settings a run without an event log
// must be indifferent to: none, metrics, and metrics with a tracer.
var instruments = []struct {
	name           string
	metrics, trace bool
}{{"bare", false, false}, {"metrics", true, false}, {"metrics+trace", true, true}}

// newMetrics returns the run's des metrics (nil when off) and their
// registry.
func newMetrics(metrics, trace bool) (*des.Metrics, *obs.Registry) {
	if !metrics {
		return nil, nil
	}
	reg := obs.NewRegistry()
	m := des.NewMetrics(reg)
	if trace {
		m.Tracer = obs.NewTracer()
	}
	return m, reg
}

// eventsTotal sums des_events_total over its kinds.
func eventsTotal(reg *obs.Registry) int {
	total := 0.0
	for _, s := range reg.Snapshot() {
		if s.Name == "des_events_total" {
			total += s.Value
		}
	}
	return int(total)
}

// TestEventSinkNonPerturbation: a run that keeps no event log, as the
// simulate endpoints run, answers exactly what a logged run answers,
// under every router of the fleet-stream shape and for a single-node
// portfolio spec, with metrics and their tracer on and off; with
// metrics on it still counts every event the logged run logs.
func TestEventSinkNonPerturbation(t *testing.T) {
	for _, routing := range fleet.Routings {
		sp := fleetStreamSpec(routing, 1024, 7)
		run := func(noEvents, metrics, trace bool) (*fleet.Result, fleet.Scenario, *obs.Registry) {
			t.Helper()
			sc, err := sp.Build(0)
			if err != nil {
				t.Fatal(err)
			}
			var reg *obs.Registry
			sc.Metrics, reg = newMetrics(metrics, trace)
			sc.NoEvents = noEvents
			res, err := fleet.Simulate(sc)
			if err != nil {
				t.Fatalf("%s: %v", routing, err)
			}
			return res, sc, reg
		}
		ref, refSc, _ := run(false, false, false)
		logged := 0
		for _, n := range ref.Nodes {
			logged += len(n.Result.Events)
		}
		want := FleetSummaryOf(refSc, ref)
		for _, in := range instruments {
			res, sc, reg := run(true, in.metrics, in.trace)
			if got := FleetSummaryOf(sc, res); !reflect.DeepEqual(got, want) {
				t.Errorf("%s, %s: the run without event logs summarizes differently", routing, in.name)
			}
			for i, n := range res.Nodes {
				if n.Result.Events != nil {
					t.Errorf("%s, %s: node %d kept %d events", routing, in.name, i, len(n.Result.Events))
				}
			}
			if reg != nil {
				if got := eventsTotal(reg); got != logged {
					t.Errorf("%s, %s: des_events_total %d, logged run has %d events", routing, in.name, got, logged)
				}
			}
		}
	}

	sp := des.Spec{Arrivals: des.ArrivalSpec{Process: "poisson", Rate: 4e-9, N: 64}, Policy: "portfolio", MaxResident: 4, Seed: 7}
	run := func(noEvents, metrics, trace bool) (*des.Result, des.Scenario, *obs.Registry) {
		t.Helper()
		sc, err := sp.Build()
		if err != nil {
			t.Fatal(err)
		}
		var reg *obs.Registry
		sc.Metrics, reg = newMetrics(metrics, trace)
		sc.NoEvents = noEvents
		res, err := des.Simulate(sc)
		if err != nil {
			t.Fatal(err)
		}
		return res, sc, reg
	}
	ref, refSc, _ := run(false, false, false)
	want := SummaryOf(refSc, ref)
	for _, in := range instruments {
		res, sc, reg := run(true, in.metrics, in.trace)
		if got := SummaryOf(sc, res); !reflect.DeepEqual(got, want) {
			t.Errorf("single node, %s: the run without an event log summarizes differently", in.name)
		}
		if res.Events != nil {
			t.Errorf("single node, %s: kept %d events", in.name, len(res.Events))
		}
		if reg != nil {
			if got := eventsTotal(reg); got != len(ref.Events) {
				t.Errorf("single node, %s: des_events_total %d, logged run has %d events", in.name, got, len(ref.Events))
			}
		}
	}
}
