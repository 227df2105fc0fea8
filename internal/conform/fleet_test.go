package conform

import (
	"crypto/sha256"
	"encoding/hex"
	"path/filepath"
	"testing"

	"repro/internal/des"
	"repro/internal/fleet"
	"repro/internal/model"
)

// TestFleetGoldenDigests is the fleet regression gate: re-running the
// committed corpus's scenarios must reproduce its digests bit-for-bit
// AND pass every fleet cross-check (routing determinism from run to
// run, the single-node reduction to internal/des, the
// fleet-vs-best-solo stretch invariant).
//
// To re-baseline after an intentional change:
//
//	go run ./cmd/conform -fleet -seeds 8 -golden internal/conform/testdata/golden_fleet.json -update
func TestFleetGoldenDigests(t *testing.T) {
	gold, err := LoadGolden(filepath.Join("testdata", "golden_fleet.json"))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunFleet(gold.FleetOptions(FleetOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range rep.Families {
		for _, v := range f.Violations {
			t.Errorf("violation: %s seed %d [%s]: %s", v.Family, v.Seed, v.Check, v.Detail)
		}
	}
	for _, diff := range gold.Compare(rep.Golden()) {
		t.Errorf("fleet golden mismatch: %s", diff)
	}
}

// fleetStreamDigests pins the request shape of coschedbench's
// fleet-stream workload, one fixed seed per router: sha256 of
// fleetDigest, the routing log plus every node's event log, per-job
// metrics and integrals. The conform families are short and seldom
// queue; this shape is long, and under three of the four routers its
// node FIFOs fill, so it covers the node state routing reads (backlog,
// jobs in system, unfinished-job walks) deep into a stream.
var fleetStreamDigests = map[string]string{
	"least-loaded":         "6c5df74583edef381cf2f6f1b8dc65ff1a9475ff9c6454e471498d23dd6bd899",
	"cache-affinity":       "031865f463f025db21a35960b06b782f4cbe3304bf8a0c4144adcdf3e9c02ba1",
	"power-of-two-choices": "e59edb717578f853f5b566d9c13175897e63725dbae300b87e21676c7312a83a",
	"join-shortest-queue":  "cdb6606da2540ab03c4fbc07eeecd3173268f0333fa0eec716c335f1dfef101b",
}

// fleetStreamReplan pins each fleetStreamDigests run's replan
// telemetry, summed over its nodes: the counters /v1/simulate-fleet
// returns, which fleetDigest leaves out. Up to 1,296 FIFO evictions a
// run make this the plan memo's longest eviction sequence under test.
var fleetStreamReplan = map[string]des.ReplanStats{
	"least-loaded":         {FastPath: 537, FullSolve: 475, MemoHits: 4296, MemoMisses: 475, MemoEvictions: 472},
	"cache-affinity":       {FastPath: 473, FullSolve: 51, MemoHits: 3784, MemoMisses: 51, MemoEvictions: 0},
	"power-of-two-choices": {FastPath: 203, FullSolve: 637, MemoHits: 1624, MemoMisses: 637, MemoEvictions: 1296},
	"join-shortest-queue":  {FastPath: 731, FullSolve: 293, MemoHits: 5848, MemoMisses: 293, MemoEvictions: 88},
}

// fleetStreamSpec is the fleet-stream shape: 16 nodes cycling the
// paper's TaihuLight node, a half-size node with a quarter of its
// cache and a double-size node with half its cache, "portfolio"
// policies capped at 4 residents, and a 1,024-job Poisson stream at
// rate 3.5e-8.
func fleetStreamSpec(routing string, seed uint64) *fleet.Spec {
	tl := model.TaihuLight()
	half, double := tl, tl
	half.Processors, half.CacheSize = tl.Processors/2, tl.CacheSize/4
	double.Processors, double.CacheSize = tl.Processors*2, tl.CacheSize/2
	shapes := []model.Platform{tl, half, double}
	nodes := make([]fleet.NodeSpec, 16)
	for k := range nodes {
		pl := shapes[k%len(shapes)]
		nodes[k] = fleet.NodeSpec{
			Platform: &des.PlatformSpec{Processors: pl.Processors, CacheSize: pl.CacheSize,
				LatencyS: pl.LatencyS, LatencyL: pl.LatencyL, Alpha: pl.Alpha},
			Policy:      "portfolio",
			MaxResident: 4,
		}
	}
	return &fleet.Spec{
		Nodes:    nodes,
		Routing:  routing,
		Arrivals: des.ArrivalSpec{Process: "poisson", Rate: 3.5e-8, N: 1024},
		Seed:     seed,
	}
}

// TestFleetStreamDigests runs the fleet-stream shape under every
// router, compares each run with its pinned digest and replan
// telemetry, and checks its sample-path accounting.
func TestFleetStreamDigests(t *testing.T) {
	for i, routing := range fleet.Routings {
		sc, err := fleetStreamSpec(routing, 9001+uint64(i)).Build(1)
		if err != nil {
			t.Fatal(err)
		}
		r, err := fleet.Simulate(sc)
		if err != nil {
			t.Fatalf("%s: %v", routing, err)
		}
		checkFleetSamplePath(r, sc.Nodes, routing+": ", func(check, format string, args ...any) {
			t.Errorf("[%s] "+format, append([]any{check}, args...)...)
		})
		sum := sha256.Sum256([]byte(fleetDigest(r)))
		if got := hex.EncodeToString(sum[:]); got != fleetStreamDigests[routing] {
			t.Errorf("%s: digest %s, want %s", routing, got, fleetStreamDigests[routing])
		}
		var replan des.ReplanStats
		for _, n := range r.Nodes {
			replan.Add(n.Result.Replan)
		}
		if replan != fleetStreamReplan[routing] {
			t.Errorf("%s: replan %+v, want %+v", routing, replan, fleetStreamReplan[routing])
		}
	}
}
