package fleet

import (
	"fmt"
	"strings"

	"repro/internal/des"
	"repro/internal/solve"
)

// routerSalt decorrelates the router's RNG stream from the node policy
// streams derived from the same fleet seed.
const routerSalt = 0xC2B2AE3D27D4EB4F

// NodePolicySeed derives node i's policy seed from the fleet seed. It
// is exported so a single-node fleet can be reproduced exactly by a
// standalone des run with the same policy seed (the conform harness's
// single-node reduction check relies on this).
func NodePolicySeed(seed uint64, i int) uint64 {
	return solve.NewRNG(solve.Substream(seed, uint64(i)+1)).Uint64()
}

// routerSeed derives the routing layer's RNG seed from the fleet seed,
// mixed through SplitMix64 so it shares no affine structure with the
// node streams.
func routerSeed(seed uint64) uint64 {
	return solve.NewRNG(seed ^ routerSalt).Uint64()
}

// NodeState is the router's view of one node at a routing decision,
// computed by the simulator after advancing every node to the arrival
// instant. All fields are pure functions of node state, so any router
// over them is deterministic.
type NodeState struct {
	// Index is the node's position in Scenario.Nodes.
	Index int
	// Backlog is des.Node.BacklogAt the arrival time: the node's
	// remaining work as wall time.
	Backlog float64
	// InSystem is the node's unfinished job count (running, parked and
	// FIFO-queued alike), des.Node.JobsInSystem. It is read in O(1).
	InSystem int
	// Affinity is the footprint-overlap score against the arriving job:
	// the summed remaining fractions of the node's unfinished jobs
	// stamped from the same template (base name before the "#<i>"
	// suffix) — jobs from one template share a working set, so a high
	// score means the job's footprint is already resident. Scoring walks
	// every unfinished job of every node, so the simulator computes it
	// only for cache-affinity, the one router that reads it; it is zero
	// under the others.
	Affinity float64
}

// Router picks a destination node for each arrival. Implementations
// must be deterministic functions of their construction parameters and
// the sequence of Pick calls; any randomness comes from seeded
// solve.RNG streams. states always lists every node in index order.
type Router interface {
	Pick(states []NodeState, a des.Arrival) int
	Name() string
}

// Routings lists the built-in routing policy names in presentation
// order.
var Routings = []string{
	"least-loaded",
	"cache-affinity",
	"power-of-two-choices",
	"join-shortest-queue",
}

// ParseRouter resolves a routing policy name. Empty means
// "least-loaded". seed drives the randomized routers
// (power-of-two-choices); deterministic ones ignore it.
func ParseRouter(spec string, seed uint64) (Router, error) {
	switch spec {
	case "", "least-loaded":
		return leastLoaded{}, nil
	case "cache-affinity":
		return cacheAffinity{}, nil
	case "power-of-two-choices":
		return &powerOfTwo{rng: solve.NewRNG(seed)}, nil
	case "join-shortest-queue":
		return shortestQueue{}, nil
	default:
		return nil, fmt.Errorf("fleet: unknown routing policy %q (want %s)",
			spec, strings.Join(Routings, ", "))
	}
}

// leastLoaded routes to the node with the smallest backlog; ties break
// to the lowest index.
type leastLoaded struct{}

func (leastLoaded) Name() string { return "least-loaded" }

func (leastLoaded) Pick(states []NodeState, _ des.Arrival) int {
	best := 0
	for i := 1; i < len(states); i++ {
		if states[i].Backlog < states[best].Backlog {
			best = i
		}
	}
	return best
}

// cacheAffinity routes to the node whose resident footprint overlaps
// the arriving job's the most (highest Affinity); among equally-affine
// nodes the smaller backlog wins, then the lowest index — so a cold
// fleet degrades to least-loaded instead of piling onto node 0.
type cacheAffinity struct{}

func (cacheAffinity) Name() string { return "cache-affinity" }

func (cacheAffinity) Pick(states []NodeState, _ des.Arrival) int {
	best := 0
	for i := 1; i < len(states); i++ {
		s, b := &states[i], &states[best]
		if s.Affinity > b.Affinity ||
			(s.Affinity == b.Affinity && s.Backlog < b.Backlog) {
			best = i
		}
	}
	return best
}

// powerOfTwo samples two distinct nodes from its seeded stream and
// routes to the less backlogged of the pair (ties to the lower index)
// — the classical load-balancing compromise between random and
// least-loaded routing. The draw order is fixed (first index uniform
// over n, second uniform over the remaining n-1), so a fixed seed
// yields a fixed route sequence.
type powerOfTwo struct {
	rng *solve.RNG
}

func (*powerOfTwo) Name() string { return "power-of-two-choices" }

func (p *powerOfTwo) Pick(states []NodeState, _ des.Arrival) int {
	n := len(states)
	if n == 1 {
		// No second choice to draw; consuming RNG here would also
		// desynchronize the stream between fleets that momentarily
		// degenerate to one node and fleets that never do.
		return 0
	}
	i := p.rng.Intn(n)
	j := p.rng.Intn(n - 1)
	if j >= i {
		j++
	}
	if states[j].Backlog < states[i].Backlog ||
		(states[j].Backlog == states[i].Backlog && j < i) {
		return j
	}
	return i
}

// shortestQueue routes to the node with the fewest unfinished jobs in
// the system; ties break to the lowest index.
type shortestQueue struct{}

func (shortestQueue) Name() string { return "join-shortest-queue" }

func (shortestQueue) Pick(states []NodeState, _ des.Arrival) int {
	best := 0
	for i := 1; i < len(states); i++ {
		if states[i].InSystem < states[best].InSystem {
			best = i
		}
	}
	return best
}

// baseName strips the "#<i>" arrival stamp CycleApps appends, exposing
// the template identity two jobs share iff they share a working set.
func baseName(name string) string {
	if i := strings.LastIndexByte(name, '#'); i >= 0 {
		return name[:i]
	}
	return name
}
