package des

import (
	"context"
	"fmt"
	"math"

	"repro/internal/model"
)

// NodeConfig parameterizes one steppable online node (see Node).
type NodeConfig struct {
	// Platform is the node's hardware: its own processor count, cache
	// size and latency constants.
	Platform model.Platform
	// Policy repartitions the node's resident set at every arrival and
	// completion, exactly as in Scenario.
	Policy Policy
	// MaxResident, when > 0, bounds node sharing; excess jobs queue in
	// the node-local FIFO.
	MaxResident int
	// Metrics instruments the node (may be shared across nodes: all
	// counters are atomic). Nil disables observation without changing
	// any result bit.
	Metrics *Metrics
}

// Node is the simulation engine of one node, driven from outside: it
// accepts arrivals one at a time (Inject) interleaved with bounded time
// advancement (AdvanceBefore), and Finish drains it into its Result.
// Simulate is a Node driven by the arrival intake (EachArrival): it
// advances the node to each admitted arrival and injects it. A
// fleet-level router drives one Node per fleet node through the same
// intake, deciding each job's destination from the nodes' live states
// between the advance and the injection.
type Node struct {
	e        *engine
	finished bool
}

// NewNode validates cfg and returns an idle node at virtual time 0.
func NewNode(cfg NodeConfig) (*Node, error) {
	if err := cfg.Platform.Validate(); err != nil {
		return nil, err
	}
	if cfg.Policy == nil {
		return nil, fmt.Errorf("des: node needs an online policy")
	}
	if cfg.MaxResident < 0 {
		return nil, fmt.Errorf("des: max resident must be >= 0, got %d", cfg.MaxResident)
	}
	return &Node{e: &engine{cfg: cfg, res: &Result{}}}, nil
}

// Inject registers one arrival. Arrival times must be non-decreasing
// across Inject calls and must not precede the node's current virtual
// time (the clock only moves forward). The job is not processed until
// time advances past it via AdvanceBefore or Finish.
func (n *Node) Inject(a Arrival) error {
	if n.finished {
		return fmt.Errorf("des: node already finished")
	}
	if err := validateArrival(a); err != nil {
		return err
	}
	if k := len(n.e.jobs); k > 0 && a.Time < n.e.jobs[k-1].arrival {
		return fmt.Errorf("des: arrivals went backwards: t=%g after t=%g", a.Time, n.e.jobs[k-1].arrival)
	}
	if a.Time < n.e.now {
		return fmt.Errorf("des: arrival at t=%g precedes the node clock t=%g", a.Time, n.e.now)
	}
	n.e.addJob(a)
	return nil
}

// AdvanceBefore processes every pending event strictly before t. The
// strict bound is what gives simultaneous arrivals one event step: an
// arrival injected at exactly t after the call is processed in the step
// at t (completions included) and sees one policy invocation. A NaN t
// is rejected: no event time compares below it, so it would otherwise
// drain the node.
func (n *Node) AdvanceBefore(t float64) error {
	if n.finished {
		return fmt.Errorf("des: node already finished")
	}
	if math.IsNaN(t) {
		return fmt.Errorf("des: advance time %v is not a number", t)
	}
	return n.e.runBefore(context.Background(), t)
}

// Finish drains every remaining event and returns the node's Result:
// per-job metrics and their summaries, and the policy's replan
// telemetry. It fails on a deadlock (a job that can never finish
// because no pending event would grant it processors) and polls ctx
// every ctxCheckEvery event steps. A node that never received a job
// returns an empty result. The node cannot be used afterwards.
func (n *Node) Finish(ctx context.Context) (*Result, error) {
	if n.finished {
		return nil, fmt.Errorf("des: node already finished")
	}
	if err := n.e.runBefore(ctx, math.Inf(1)); err != nil {
		return nil, err
	}
	for id := range n.e.jobs {
		if !n.e.jobs[id].done {
			return nil, fmt.Errorf("des: deadlock: job %d (%s) can never finish (zero allocation with no pending events)", id, n.e.jobs[id].app.Name)
		}
	}
	n.e.finalize()
	if tp, ok := n.e.cfg.Policy.(ReplanReporter); ok {
		n.e.res.Replan = tp.ReplanStats()
	}
	if m := n.e.cfg.Metrics; m != nil {
		m.simulations.Inc()
		m.jobs.Add(uint64(len(n.e.res.Jobs)))
		m.observeReplan(n.e.res.Replan)
	}
	n.finished = true
	return n.e.res, nil
}

// Now returns the node's current virtual time: the instant of the last
// event it processed, 0 before the first.
func (n *Node) Now() float64 { return n.e.now }

// JobsInSystem counts unfinished jobs on the node in O(1): running
// residents, parked residents and FIFO waiters alike (the
// join-shortest-queue router's load signal). It also counts arrivals
// injected at this instant and not yet processed.
func (n *Node) JobsInSystem() int {
	return len(n.e.residents) + len(n.e.jobs) - n.e.fifo
}

// BacklogAt estimates the remaining work on the node as wall time at
// virtual time t ≥ Now: for each running job, its predicted residual
// under the current allocation (clamped at 0 when t runs past the
// prediction); for each parked or queued job, its residual on the
// dedicated machine — an optimistic but deterministic proxy, since the
// allocation it will actually receive is unknowable before the policy
// runs. The estimate is a pure function of node state, so routers built
// on it stay bit-deterministic. It visits the unfinished jobs only, in
// arrival order: O(JobsInSystem), not O(jobs ever received).
func (n *Node) BacklogAt(t float64) float64 {
	e := n.e
	backlog := 0.0
	for _, id := range e.residents {
		st := &e.jobs[id]
		if st.procs > 0 && !math.IsInf(st.exe, 1) {
			if rem := (1-st.frac)*st.exe - (t - e.now); rem > 0 {
				backlog += rem
			}
			continue
		}
		backlog += (1 - st.frac) * st.dedicated
	}
	for id := e.fifo; id < len(e.jobs); id++ {
		backlog += (1 - e.jobs[id].frac) * e.jobs[id].dedicated
	}
	return backlog
}

// VisitUnfinished calls f for every unfinished job on the node, in
// arrival order, with the job's application name and remaining work
// fraction — the raw material for footprint-affinity routing scores.
// Like BacklogAt it visits the unfinished jobs only. The walk is one
// loop over both runs of ids (see engine) so that it stays small enough
// to inline: f is then inlined into the caller's loop, not called
// indirectly once per job.
func (n *Node) VisitUnfinished(f func(name string, remaining float64)) {
	e := n.e
	ids := e.residents
	for k := range len(ids) + len(e.jobs) - e.fifo {
		id := e.fifo + k - len(ids)
		if k < len(ids) {
			id = ids[k]
		}
		f(e.jobs[id].app.Name, 1-e.jobs[id].frac)
	}
}
