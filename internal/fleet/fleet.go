// Package fleet simulates a multi-node co-scheduling deployment: N
// heterogeneous cache-partitioned nodes — each running the single-node
// online solver of internal/des with its own processor count, cache
// size and repartitioning policy — behind a routing layer that decides,
// per arriving job, which node it lands on. The paper solves one node;
// this package is the production shape the ROADMAP targets, where an
// arrival stream exercises routing and per-node incremental
// repartitioning together.
//
// Routing policies (see routing.go): least-loaded, cache-affinity
// (route to the node whose resident footprint overlaps the job's, the
// co-scheduling analog of prefix-affinity routing in inference
// serving), power-of-two-choices and join-shortest-queue.
//
// The fleet is driven exactly like a single node: des.EachArrival, the
// arrival intake des.Simulate uses too, pulls the stream, validates it
// and applies the Duration window, and for every admitted arrival the
// router advances each des.Node to the arrival instant, scores it and
// injects the job into the one it picks.
//
// Determinism: the simulation is a pure function of the Scenario. Node
// i's policy seed is derived from the fleet seed with the repository's
// golden-ratio stride (NodePolicySeed), the router's stream is salted
// and split off separately, arrivals are routed serially in stream
// order, and every node is a des.Node — bit-deterministic at any worker
// count. The nodes advance, score and drain one after another in a
// plain loop: each step is microseconds of work, too little to pay for
// a goroutine fork/join per node per arrival. Routing an arrival is
// O(nodes + unfinished jobs): an idle node advances with one comparison
// against its next event, and des.Node's JobsInSystem is O(1) while its
// BacklogAt and VisitUnfinished walk only unfinished jobs, so the
// per-arrival cost does not grow with the length of the stream. A
// "portfolio" node policy races its heuristics serially on the same
// goroutine too, so a fleet run has no parallelism of its own and
// holds no engine: concurrent runs share nothing. The conform fleet
// harness checks that two runs of one scenario agree bit for bit and
// pins their digests against a committed golden corpus.
package fleet

import (
	"context"
	"fmt"

	"repro/internal/des"
	"repro/internal/model"
	"repro/internal/selector"
	"repro/internal/stats"
)

// Node configures one node of the fleet.
type Node struct {
	// Name labels the node in results ("node<i>" when empty).
	Name string
	// Platform is the node's hardware.
	Platform model.Platform
	// Policy is the node's online repartitioning policy, in
	// des.ParsePolicy syntax; empty means DominantMinRatio.
	Policy string
	// MaxResident, when > 0, bounds how many jobs share the node at
	// once; excess jobs wait in the node-local FIFO.
	MaxResident int
}

// Scenario is one fleet simulation problem.
type Scenario struct {
	// Nodes is the fleet; at least one node is required.
	Nodes []Node
	// Routing selects the routing policy (see Routings); empty means
	// least-loaded.
	Routing string
	// Arrivals produces the fleet-wide job stream. The process is
	// consumed by the run; build a fresh one per Simulate call.
	Arrivals des.ArrivalProcess
	// Duration, when > 0, cuts off the arrival stream: the intake
	// (des.EachArrival) admits the half-open window [0, Duration),
	// exactly as for des.Scenario.Duration, and counts the rest in
	// Result.Truncated without routing them, so all nodes share one
	// clock cutoff.
	Duration float64
	// Seed drives every random draw: node policy substreams and the
	// router's stream are both derived from it.
	Seed uint64
	// Metrics instruments every node of the run (counters are atomic,
	// so one registry serves the whole fleet). Nil disables
	// observation; results are bit-identical either way.
	Metrics *des.Metrics
	// Ledger backs any "portfolio:selector" node policies with a
	// trained win-rate ledger (nil leaves them always falling back to
	// the full race, bit-identical to "portfolio").
	Ledger *selector.Ledger
	// NoEvents, when set, keeps no node event logs: every node's
	// Result.Events stays nil (see des.Scenario.NoEvents).
	NoEvents bool
}

// Route records one routing decision.
type Route struct {
	// Job is the fleet-wide job id, dense in arrival order.
	Job int
	// Time is the arrival's virtual time.
	Time float64
	// Node is the destination node index.
	Node int
}

// NodeResult is one node's outcome.
type NodeResult struct {
	// Name is the node's label.
	Name string
	// Jobs is how many jobs the router sent to this node.
	Jobs int
	// Result is the node's full single-node outcome (event log, per-job
	// metrics, integrals); its event log is nil when the scenario set
	// NoEvents. A node that received no jobs has an empty result with
	// Makespan 0.
	Result *des.Result
}

// Result is the outcome of a fleet simulation.
type Result struct {
	// Routing is the resolved routing policy name.
	Routing string
	// Nodes holds the per-node outcomes, in Scenario.Nodes order.
	Nodes []NodeResult
	// Routes is the append-only routing log, one entry per admitted
	// job in arrival order.
	Routes []Route
	// Jobs counts admitted jobs across the fleet.
	Jobs int
	// Truncated counts arrivals discarded by the Duration cutoff.
	Truncated int
	// Makespan is the latest node makespan: when the whole fleet
	// drained.
	Makespan float64
	// ProcessorTime sums the nodes' allocated-processor integrals.
	ProcessorTime float64
	// Wait, Response and Stretch summarize the per-job metrics across
	// the whole fleet (fleet-wide arrival order).
	Wait, Response, Stretch stats.Summary
}

// Utilization returns ProcessorTime normalized by the fleet's total
// processor capacity over the run, or 0 for an empty run.
func (r *Result) Utilization(totalProcs float64) float64 {
	if r.Makespan <= 0 || totalProcs <= 0 {
		return 0
	}
	return r.ProcessorTime / (totalProcs * r.Makespan)
}

// Simulate runs the fleet scenario to completion: every arrival routed,
// every node drained. See SimulateContext.
func Simulate(sc Scenario) (*Result, error) {
	return SimulateContext(context.Background(), sc)
}

// SimulateContext is Simulate under a context; cancellation abandons
// the run with ctx.Err() within a few arrivals (see des.EachArrival)
// or, during the final drain, a few events.
func SimulateContext(ctx context.Context, sc Scenario) (*Result, error) {
	if len(sc.Nodes) == 0 {
		return nil, fmt.Errorf("fleet: scenario needs at least one node")
	}
	router, err := ParseRouter(sc.Routing, routerSeed(sc.Seed))
	if err != nil {
		return nil, err
	}
	nodes := make([]*des.Node, len(sc.Nodes))
	names := make([]string, len(sc.Nodes))
	for i, nc := range sc.Nodes {
		names[i] = nc.Name
		if names[i] == "" {
			names[i] = fmt.Sprintf("node%d", i)
		}
		pol, err := des.ParsePolicy(nc.Policy, NodePolicySeed(sc.Seed, i))
		if err != nil {
			return nil, fmt.Errorf("fleet: node %s: %w", names[i], err)
		}
		if sc.Ledger != nil {
			des.ConfigureSelector(pol, sc.Ledger)
		}
		nodes[i], err = des.NewNode(des.Scenario{
			Platform:    nc.Platform,
			Policy:      pol,
			MaxResident: nc.MaxResident,
			Metrics:     sc.Metrics,
			NoEvents:    sc.NoEvents,
		})
		if err != nil {
			return nil, fmt.Errorf("fleet: node %s: %w", names[i], err)
		}
	}

	res := &Result{Routing: router.Name()}
	states := make([]NodeState, len(nodes))
	// Only cache-affinity reads Affinity, and each score walks the node's
	// unfinished jobs, so the other routers skip it.
	_, scoreAffinity := router.(cacheAffinity)
	// Cache-affinity numbers each job's template (its base name) once,
	// on arrival, and tmpl[i][j] is that of node i's job j, so scoring a
	// node compares integers instead of parsing names.
	var (
		templates map[string]int
		tmpl      [][]int
	)
	if scoreAffinity {
		templates, tmpl = map[string]int{}, make([][]int, len(nodes))
	}
	res.Truncated, err = des.EachArrival(ctx, sc.Arrivals, sc.Duration, func(a des.Arrival) error {
		t := 0
		if scoreAffinity {
			base := baseName(a.App.Name)
			var ok bool
			if t, ok = templates[base]; !ok {
				t = len(templates)
				templates[base] = t
			}
		}
		// Advance every node to the arrival instant, then score them.
		for i, n := range nodes {
			if err := n.AdvanceBefore(a.Time); err != nil {
				return err
			}
			states[i] = NodeState{
				Index:    i,
				Backlog:  n.BacklogAt(a.Time),
				InSystem: n.JobsInSystem(),
			}
			if scoreAffinity {
				states[i].Affinity = affinity(n, tmpl[i], t)
			}
		}
		pick := router.Pick(states, a)
		if pick < 0 || pick >= len(nodes) {
			return fmt.Errorf("fleet: router %s picked node %d of %d", router.Name(), pick, len(nodes))
		}
		if err := nodes[pick].Inject(a); err != nil {
			return fmt.Errorf("fleet: node %s: %w", names[pick], err)
		}
		if scoreAffinity {
			tmpl[pick] = append(tmpl[pick], t)
		}
		res.Routes = append(res.Routes, Route{Job: res.Jobs, Time: a.Time, Node: pick})
		res.Jobs++
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Drain every node and collect the per-node outcomes.
	res.Nodes = make([]NodeResult, len(nodes))
	for i, n := range nodes {
		nr, err := n.Finish(ctx)
		if err != nil {
			return nil, fmt.Errorf("fleet: node %s: %w", names[i], err)
		}
		res.Nodes[i] = NodeResult{Name: names[i], Jobs: len(nr.Jobs), Result: nr}
	}
	aggregate(res)
	return res, nil
}

// affinity scores a node's footprint overlap with an arriving job of
// template t: the summed remaining fractions of the node's unfinished
// jobs of the same template, where tmpl[j] is the template of the
// node's job j (see NodeState.Affinity).
func affinity(n *des.Node, tmpl []int, t int) float64 {
	score := 0.0
	n.VisitUnfinished(func(job int, remaining float64) {
		if tmpl[job] == t {
			score += remaining
		}
	})
	return score
}

// aggregate folds the per-node outcomes into the fleet-wide result:
// makespan, processor-time and per-job summaries in fleet arrival
// order (the routing log maps global job ids to node-local ones, which
// are dense in injection order).
func aggregate(res *Result) {
	waits := make([]float64, res.Jobs)
	resps := make([]float64, res.Jobs)
	stretches := make([]float64, res.Jobs)
	next := make([]int, len(res.Nodes))
	for _, rt := range res.Routes {
		jm := res.Nodes[rt.Node].Result.Jobs[next[rt.Node]]
		next[rt.Node]++
		waits[rt.Job], resps[rt.Job], stretches[rt.Job] = jm.Wait, jm.Response, jm.Stretch
	}
	for i := range res.Nodes {
		nr := res.Nodes[i].Result
		if nr.Makespan > res.Makespan {
			res.Makespan = nr.Makespan
		}
		res.ProcessorTime += nr.ProcessorTime
	}
	// Errors impossible: the run rejects empty arrival streams.
	res.Wait, _ = stats.Summarize(waits)
	res.Response, _ = stats.Summarize(resps)
	res.Stretch, _ = stats.Summarize(stretches)
}
