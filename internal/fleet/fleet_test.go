package fleet

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/des"
	"repro/internal/model"
	"repro/internal/solve"
	"repro/internal/workload"
)

// testProc builds a fresh Poisson arrival stream over the NPB
// templates (processes are consumed by a run, so every simulation arm
// needs its own).
func testProc(t *testing.T, n int, seed uint64) des.ArrivalProcess {
	t.Helper()
	factory, err := des.CycleApps(workload.NPB())
	if err != nil {
		t.Fatal(err)
	}
	p, err := des.NewPoisson(3e-9, n, factory, solve.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func testNodes(n int) []Node {
	nodes := make([]Node, n)
	for i := range nodes {
		pl := model.TaihuLight()
		// Mild heterogeneity: distinct processor counts and caches.
		pl.Processors += float64(4 * i)
		pl.CacheSize *= 1 + 0.25*float64(i)
		nodes[i] = Node{Platform: pl, MaxResident: 4}
	}
	return nodes
}

// TestSingleNodeReducesToDES: a one-node fleet is the single-node
// simulator with a routing layer that has nothing to decide, so its
// node result must be bit-identical to des.Simulate over the same
// stream with the same derived policy seed — for every routing policy
// (on one node they must all degenerate to the same behavior).
func TestSingleNodeReducesToDES(t *testing.T) {
	pl := model.TaihuLight()
	const seed = 7
	for _, routing := range Routings {
		pol, err := des.ParsePolicy("DominantMinRatio", NodePolicySeed(seed, 0))
		if err != nil {
			t.Fatal(err)
		}
		want, err := des.Simulate(des.Scenario{
			Platform: pl, Arrivals: testProc(t, 24, 3), Policy: pol, MaxResident: 4,
		})
		if err != nil {
			t.Fatalf("%s: des: %v", routing, err)
		}
		got, err := Simulate(Scenario{
			Nodes:    []Node{{Platform: pl, MaxResident: 4}},
			Routing:  routing,
			Arrivals: testProc(t, 24, 3),
			Seed:     seed,
		})
		if err != nil {
			t.Fatalf("%s: fleet: %v", routing, err)
		}
		if !reflect.DeepEqual(want, got.Nodes[0].Result) {
			t.Errorf("%s: single-node fleet differs from des.Simulate (makespan %v vs %v, %d vs %d events)",
				routing, got.Nodes[0].Result.Makespan, want.Makespan,
				len(got.Nodes[0].Result.Events), len(want.Events))
		}
		if got.Jobs != len(want.Jobs) || got.Makespan != want.Makespan {
			t.Errorf("%s: aggregate jobs=%d makespan=%v, want %d / %v",
				routing, got.Jobs, got.Makespan, len(want.Jobs), want.Makespan)
		}
		for _, rt := range got.Routes {
			if rt.Node != 0 {
				t.Fatalf("%s: route to node %d in a one-node fleet", routing, rt.Node)
			}
		}
	}
}

// TestWorkerDeterminism: the whole fleet result — routing log and every
// node's event log — is bit-identical from run to run, for every
// routing policy and a portfolio node policy.
func TestWorkerDeterminism(t *testing.T) {
	for _, routing := range Routings {
		run := func() *Result {
			nodes := testNodes(3)
			for i := range nodes {
				nodes[i].Policy = "portfolio"
			}
			res, err := Simulate(Scenario{
				Nodes:    nodes,
				Routing:  routing,
				Arrivals: testProc(t, 30, 9),
				Seed:     13,
			})
			if err != nil {
				t.Fatalf("%s: %v", routing, err)
			}
			return res
		}
		if r1, r2 := run(), run(); !reflect.DeepEqual(r1, r2) {
			t.Errorf("%s: fleet result differs between two runs", routing)
		}
	}
}

// TestDeterministicTies: on a fleet of identical idle nodes every
// scoring signal ties, and every tie must break to the lowest index —
// repeatably. power-of-two-choices is seeded rather than index-biased,
// so for it the check is repeatability plus the documented pair rule.
func TestDeterministicTies(t *testing.T) {
	app := workload.NPB()[0]
	idle := []NodeState{{Index: 0}, {Index: 1}, {Index: 2}}
	for _, spec := range []string{"least-loaded", "cache-affinity", "join-shortest-queue"} {
		r, err := ParseRouter(spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got := r.Pick(idle, des.Arrival{App: app}); got != 0 {
			t.Errorf("%s: tie broke to node %d, want 0", spec, got)
		}
	}
	// Seeded router: two instances with one seed agree draw for draw;
	// on a backlog tie the lower-indexed candidate of the pair wins.
	ra, _ := ParseRouter("power-of-two-choices", 99)
	rb, _ := ParseRouter("power-of-two-choices", 99)
	for i := 0; i < 64; i++ {
		a, b := ra.Pick(idle, des.Arrival{App: app}), rb.Pick(idle, des.Arrival{App: app})
		if a != b {
			t.Fatalf("power-of-two-choices: draw %d diverged (%d vs %d) at equal seeds", i, a, b)
		}
	}
}

// TestCacheAffinityRouting: with two nodes and a two-template stream,
// affinity routing keeps templates together — after the warmup
// arrival, a job whose template is resident on exactly one node goes
// there.
func TestCacheAffinityRouting(t *testing.T) {
	apps := workload.NPB()[:2]
	// Alternating template stream, closely spaced so prior jobs are
	// still resident when the next arrives.
	arr := make([]des.Arrival, 8)
	for i := range arr {
		a := apps[i%2]
		a.Name = a.Name + "#x" // distinct stamp, shared base
		arr[i] = des.Arrival{Time: float64(i), App: a}
	}
	proc, err := des.NewReplay(arr)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(Scenario{
		Nodes:    testNodes(2),
		Routing:  "cache-affinity",
		Arrivals: proc,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	byTemplate := map[int]int{} // template parity -> node of first placement
	for i, rt := range res.Routes {
		if prev, ok := byTemplate[i%2]; ok {
			if rt.Node != prev {
				t.Errorf("job %d (template %d) routed to node %d, away from its resident template on node %d",
					i, i%2, rt.Node, prev)
			}
		} else {
			byTemplate[i%2] = rt.Node
		}
	}
	if len(byTemplate) == 2 && byTemplate[0] == byTemplate[1] {
		t.Errorf("both templates piled onto node %d; affinity ties should have spread them by backlog", byTemplate[0])
	}
}

// TestValidation covers scenario- and spec-level rejection paths.
func TestValidation(t *testing.T) {
	if _, err := Simulate(Scenario{Arrivals: testProc(t, 4, 1)}); err == nil ||
		!strings.Contains(err.Error(), "at least one node") {
		t.Errorf("empty fleet: got %v, want an at-least-one-node error", err)
	}
	if _, err := Simulate(Scenario{Nodes: testNodes(1)}); err == nil {
		t.Error("nil arrival process accepted")
	}
	if _, err := Simulate(Scenario{Nodes: testNodes(1), Arrivals: testProc(t, 4, 1), Duration: math.Inf(1)}); err == nil {
		t.Error("infinite duration accepted")
	}
	if _, err := Simulate(Scenario{Nodes: testNodes(1), Arrivals: testProc(t, 4, 1), Duration: 1}); err == nil {
		t.Error("stream with no arrival inside the duration accepted")
	}
	if _, err := Simulate(Scenario{Nodes: testNodes(1), Arrivals: testProc(t, 4, 1), Routing: "bogus"}); err == nil {
		t.Error("unknown routing policy accepted")
	}
	if _, err := Simulate(Scenario{
		Nodes:    []Node{{Platform: model.Platform{}}},
		Arrivals: testProc(t, 4, 1),
	}); err == nil {
		t.Error("invalid node platform accepted")
	}
	if _, err := ParseRouter("bogus", 0); err == nil {
		t.Error("ParseRouter accepted an unknown policy")
	}

	spec := &Spec{Arrivals: des.ArrivalSpec{Process: "poisson", Rate: 1, N: 4}}
	if err := spec.Validate(); err == nil || !strings.Contains(err.Error(), "at least one node") {
		t.Errorf("spec with no nodes: got %v", err)
	}
	spec.Nodes = []NodeSpec{{}}
	if err := spec.Validate(); err != nil {
		t.Errorf("minimal valid spec rejected: %v", err)
	}
	spec.Routing = "bogus"
	if err := spec.Validate(); err == nil {
		t.Error("spec with unknown routing accepted")
	}
	spec.Routing = ""
	spec.Duration = math.NaN()
	if err := spec.Validate(); err == nil {
		t.Error("spec with NaN duration accepted")
	}
	spec.Duration = 0
	// A node policy is parsed up front, so a bad one fails validation
	// instead of the run.
	for _, policy := range []string{"bogus", "AllProcCache"} {
		spec.Nodes = []NodeSpec{{}, {Policy: policy}}
		if err := spec.Validate(); err == nil || !strings.Contains(err.Error(), "node 1") {
			t.Errorf("spec with node policy %q: got %v, want a node 1 error", policy, err)
		}
	}
}

// TestDecodeSpecRoundTrip: the wire format decodes, builds and runs;
// unknown fields are rejected.
func TestDecodeSpecRoundTrip(t *testing.T) {
	const doc = `{
		"nodes": [
			{"name": "big", "policy": "portfolio"},
			{"platform": {"processors": 16, "cacheSize": 4e7, "ls": 0.1, "ll": 2, "alpha": 0.5}, "maxResident": 2}
		],
		"routing": "least-loaded",
		"arrivals": {"process": "poisson", "rate": 3e-9, "n": 12},
		"seed": 5
	}`
	sp, err := DecodeSpec(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := sp.Build(2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SimulateContext(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs != 12 || len(res.Nodes) != 2 {
		t.Errorf("jobs=%d nodes=%d, want 12/2", res.Jobs, len(res.Nodes))
	}
	if res.Nodes[0].Name != "big" || res.Nodes[1].Name != "node1" {
		t.Errorf("node names %q/%q, want big/node1", res.Nodes[0].Name, res.Nodes[1].Name)
	}
	if res.Nodes[0].Jobs+res.Nodes[1].Jobs != 12 {
		t.Errorf("per-node job counts %d+%d != 12", res.Nodes[0].Jobs, res.Nodes[1].Jobs)
	}
	if _, err := DecodeSpec(strings.NewReader(`{"nodes": [{}], "arrivals": {"process": "poisson", "rate": 1, "n": 1}, "bogus": 1}`)); err == nil {
		t.Error("unknown top-level field accepted")
	}
}

// TestDurationCutoff: arrivals at or past Duration are truncated
// fleet-wide, half-open exactly like des.Scenario.Duration.
func TestDurationCutoff(t *testing.T) {
	apps := workload.NPB()
	arr := []des.Arrival{
		{Time: 0, App: apps[0]},
		{Time: 1, App: apps[1]},
		{Time: 2, App: apps[2]}, // at the boundary: truncated
		{Time: 3, App: apps[3]},
	}
	proc, err := des.NewReplay(arr)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(Scenario{
		Nodes: testNodes(2), Arrivals: proc, Duration: 2, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs != 2 || res.Truncated != 2 {
		t.Errorf("jobs=%d truncated=%d, want 2/2", res.Jobs, res.Truncated)
	}
}

// TestCancellation: a cancelled context aborts the run promptly with
// ctx.Err().
func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := SimulateContext(ctx, Scenario{
		Nodes: testNodes(2), Arrivals: testProc(t, 16, 2), Seed: 1,
	})
	if err != context.Canceled {
		t.Errorf("cancelled run returned %v, want context.Canceled", err)
	}
}

// brokenProcess emits a hand-written arrival sequence, bypassing the
// validated constructors.
type brokenProcess struct {
	arrivals []des.Arrival
	i        int
}

func (b *brokenProcess) Next() (des.Arrival, bool) {
	if b.i >= len(b.arrivals) {
		return des.Arrival{}, false
	}
	b.i++
	return b.arrivals[b.i-1], true
}

func (b *brokenProcess) Name() string { return "broken" }

// TestMisbehavingProcessErrors: a custom process that violates the
// interface contract (backwards or non-finite times, invalid apps)
// fails a fleet run with an error. In the backwards stream the second
// arrival is routed to the idle node, whose own Inject checks accept
// it, so only the intake's stream-wide order check can reject it.
func TestMisbehavingProcessErrors(t *testing.T) {
	app := workload.NPB()[0]
	for name, arr := range map[string][]des.Arrival{
		"backwards": {{Time: 5e9, App: app}, {Time: 1e9, App: app}},
		"nan time":  {{Time: 0, App: app}, {Time: math.NaN(), App: app}},
		"bad app":   {{Time: 0, App: app}, {Time: 1}},
	} {
		_, err := Simulate(Scenario{
			Nodes: testNodes(2), Arrivals: &brokenProcess{arrivals: arr}, Seed: 1,
		})
		if err == nil {
			t.Errorf("%s: misbehaving process accepted", name)
		}
	}
}
