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

// Node is the simulation engine of one node opened up for external
// driving: instead of consuming an ArrivalProcess it accepts arrivals
// one at a time (Inject) interleaved with bounded time advancement
// (AdvanceBefore), so a fleet-level router can decide each job's
// destination from the nodes' live states. The event-loop arithmetic is
// the package's Simulate loop verbatim — same batching, same progress
// tolerances, same policy invocation discipline — so a single node fed
// the same arrival stream reproduces Simulate bit-for-bit (pinned by
// TestNodeMatchesSimulate and the conform fleet harness).
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
	// The engine never pulls from an arrival process: exhausted is set
	// from the start, so every pullArrival inside step() is a no-op and
	// the nil Arrivals field is never dereferenced.
	e := &engine{
		sc: Scenario{
			Platform:    cfg.Platform,
			Policy:      cfg.Policy,
			MaxResident: cfg.MaxResident,
			Metrics:     cfg.Metrics,
		},
		res:       &Result{},
		exhausted: true,
	}
	return &Node{e: e}, nil
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
	if a.Time < n.e.lastArrival {
		return fmt.Errorf("des: arrivals went backwards: t=%g after t=%g", a.Time, n.e.lastArrival)
	}
	if a.Time < n.e.now {
		return fmt.Errorf("des: arrival at t=%g precedes the node clock t=%g", a.Time, n.e.now)
	}
	n.e.lastArrival = a.Time
	n.e.addJob(a)
	return nil
}

// AdvanceBefore processes every pending event strictly before t. The
// strict bound is what preserves Simulate's same-instant batching: an
// arrival injected at exactly t after the call still joins the event
// batch at t (completions included) and sees one policy invocation,
// exactly as absorbAt would have grouped them in a closed-loop run.
func (n *Node) AdvanceBefore(t float64) error {
	if n.finished {
		return fmt.Errorf("des: node already finished")
	}
	for {
		t0, ok := n.e.nextEventTime()
		if !ok || t0 >= t {
			return nil
		}
		if err := n.e.step(); err != nil {
			return err
		}
	}
}

// Finish drains every remaining event and returns the node's Result,
// with the same deadlock detection, per-job metrics and telemetry as
// Simulate. A node that never received a job returns an empty result.
// The node cannot be used afterwards.
func (n *Node) Finish(ctx context.Context) (*Result, error) {
	if n.finished {
		return nil, fmt.Errorf("des: node already finished")
	}
	for steps := 0; n.e.pq.Len() > 0; steps++ {
		if steps%ctxCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if err := n.e.step(); err != nil {
			return nil, err
		}
	}
	for id := range n.e.jobs {
		if !n.e.jobs[id].done {
			return nil, fmt.Errorf("des: deadlock: job %d (%s) can never finish (zero allocation with no pending events)", id, n.e.jobs[id].app.Name)
		}
	}
	n.e.finalize()
	if tp, ok := n.e.sc.Policy.(ReplanReporter); ok {
		n.e.res.Replan = tp.ReplanStats()
	}
	if m := n.e.sc.Metrics; m != nil {
		m.simulations.Inc()
		m.jobs.Add(uint64(len(n.e.res.Jobs)))
		m.observeReplan(n.e.res.Replan)
	}
	n.finished = true
	return n.e.res, nil
}

// Now returns the node's current virtual time.
func (n *Node) Now() float64 { return n.e.now }

// JobsInSystem counts unfinished jobs on the node: running residents,
// parked residents and FIFO waiters alike (the join-shortest-queue
// router's load signal).
func (n *Node) JobsInSystem() int {
	in := 0
	for id := range n.e.jobs {
		if !n.e.jobs[id].done {
			in++
		}
	}
	return in
}

// BacklogAt estimates the remaining work on the node as wall time at
// virtual time t ≥ Now: for each running job, its predicted residual
// under the current allocation (clamped at 0 when t runs past the
// prediction); for each parked or queued job, its residual on the
// dedicated machine — an optimistic but deterministic proxy, since the
// allocation it will actually receive is unknowable before the policy
// runs. The estimate is a pure function of node state, so routers built
// on it stay bit-deterministic.
func (n *Node) BacklogAt(t float64) float64 {
	backlog := 0.0
	for id := range n.e.jobs {
		st := &n.e.jobs[id]
		if st.done {
			continue
		}
		if st.procs > 0 && !math.IsInf(st.exe, 1) {
			rem := (1-st.frac)*st.exe - (t - n.e.now)
			if rem > 0 {
				backlog += rem
			}
			continue
		}
		backlog += (1 - st.frac) * st.dedicated
	}
	return backlog
}

// VisitUnfinished calls f for every unfinished job on the node, in
// arrival order, with the job's application name and remaining work
// fraction — the raw material for footprint-affinity routing scores.
func (n *Node) VisitUnfinished(f func(name string, remaining float64)) {
	for id := range n.e.jobs {
		if st := &n.e.jobs[id]; !st.done {
			f(st.app.Name, 1-st.frac)
		}
	}
}

// nextEventTime peeks the earliest pending non-stale event, discarding
// stale completion predictions along the way (a stale event's stamped
// time can precede the re-planned one, so a raw peek would under-report
// how far the node can safely advance).
func (e *engine) nextEventTime() (float64, bool) {
	for e.pq.Len() > 0 {
		if ev := e.pq.ev[0]; !e.stale(ev) {
			return ev.time, true
		}
		e.pq.pop()
	}
	return 0, false
}
