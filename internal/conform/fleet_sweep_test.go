//go:build conform

package conform

import (
	"testing"

	"repro/internal/genscen"
)

// TestFleetRoutingDeterminism is the acceptance run of the fleet
// harness: 100 seeds per fleet family, every cross-check enforced —
// routing determinism from run to run, the single-node reduction
// to internal/des, and the fleet-vs-best-solo stretch invariant. It is
// build-tagged so ordinary `go test ./...` stays fast; CI and
// developers run it with:
//
//	go test -tags conform -run TestFleetRoutingDeterminism ./internal/conform
func TestFleetRoutingDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet sweep skipped in -short mode")
	}
	// BaseSeed 1 matches the CLI default, so this test and the
	// documented `conform -fleet -seeds 100` run the same scenarios.
	rep, err := RunFleet(FleetOptions{Seeds: 100, BaseSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range rep.Families {
		t.Logf("%s: %d scenarios, best routing %v", f.Family, f.Scenarios, f.BestRouting)
		for _, v := range f.Violations {
			t.Errorf("violation: %s seed %d [%s]: %s", v.Family, v.Seed, v.Check, v.Detail)
		}
	}
	if got, want := len(rep.Families), len(genscen.FleetFamilies); got != want {
		t.Errorf("swept %d fleet families, want %d", got, want)
	}
}
