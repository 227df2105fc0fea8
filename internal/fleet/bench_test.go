package fleet

import (
	"fmt"
	"testing"

	"repro/internal/des"
)

// benchSpec is the common fleet shape of the benchmarks: n nodes behind
// the router, each capped at four residents, and a Poisson stream over
// the NPB templates of 16 jobs per node whose rate grows with n, so the
// per-node load is the same at every fleet size.
func benchSpec(routing, policy string, n int) *Spec {
	nodes := make([]NodeSpec, n)
	for i := range nodes {
		nodes[i] = NodeSpec{Policy: policy, MaxResident: 4}
	}
	return &Spec{
		Nodes:    nodes,
		Routing:  routing,
		Arrivals: des.ArrivalSpec{Process: "poisson", Rate: 2e-9 * float64(n), N: 16 * n},
		Seed:     42,
	}
}

// benchFleet times one Simulate of sp's scenario per op, checking that
// it routes jobs arrivals. One untimed op runs first: the first op in a
// binary warms the allocator and the scratch pools, and without it the
// first round of whichever arm runs first reads slow.
func benchFleet(b *testing.B, sp *Spec, jobs int) {
	op := func() {
		sc, err := sp.Build(1)
		if err != nil {
			b.Fatal(err)
		}
		res, err := Simulate(sc)
		if err != nil {
			b.Fatal(err)
		}
		if res.Jobs != jobs {
			b.Fatalf("routed %d jobs, want %d", res.Jobs, jobs)
		}
	}
	op()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// BenchmarkFleetRoute measures the routing layer itself: per-arrival
// node advancement, state scoring (backlog, occupancy, affinity) and
// the routing decision, with the cheapest repartitioning policy so the
// router dominates the profile.
func BenchmarkFleetRoute(b *testing.B) {
	benchFleet(b, benchSpec("cache-affinity", "DominantMinRatio", 4), 64)
}

// BenchmarkFleetDES measures the full fleet pipeline with
// portfolio-repartitioning nodes — the production shape, and the upper
// bound of per-event decision cost across the fleet — at three fleet
// sizes, so the per-arrival cost of advancing and scoring every node
// shows as the nodes arm grows. Node races run serially on the
// simulating goroutine, so allocs/op are deterministic.
func BenchmarkFleetDES(b *testing.B) {
	for _, n := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			benchFleet(b, benchSpec("least-loaded", "portfolio", n), 16*n)
		})
	}
}

// BenchmarkFleetRouteLong is BenchmarkFleetRoute's spec with a
// 1,024-job stream instead of 64, at the same rate, so its time per
// arrival compares directly with the short arm's: routing state that
// grows with the jobs a node has ever received, rather than with its
// unfinished ones, shows as a per-arrival gap between the two.
func BenchmarkFleetRouteLong(b *testing.B) {
	sp := benchSpec("cache-affinity", "DominantMinRatio", 4)
	sp.Arrivals.N = 1024
	benchFleet(b, sp, 1024)
}
