//go:build conform

package conform

import (
	"fmt"
	"testing"

	"repro/internal/des"
	"repro/internal/genscen"
	"repro/internal/sched"
)

// TestDeltaReplanEquivalence is the warm-start acceptance property:
// across every genscen family × a spread of seeds × every replanning
// policy kind, the delta-rescheduling run (fast path enabled, the
// default) must produce an event log bit-identical to the full-replan
// run (":full" policy suffix) — the onlineDigest covers the complete
// event stream, per-job metrics, and every integral. Each scenario runs
// both unconstrained and under a residency cap (MaxResident 2), the
// regime that produces queueing, waves, and recurring resident shapes —
// i.e. where the fast path actually fires and where an uncertified
// shortcut would show.
func TestDeltaReplanEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("delta equivalence sweep skipped in -short mode")
	}
	const seeds = 10
	policies := []string{"portfolio", "DominantMinRatio", "LocalSearch", "DominantRandom"}
	for _, fam := range genscen.Families {
		for i := 0; i < seeds; i++ {
			seed := uint64(1 + i)
			in, err := genscen.Generate(fam, seed, genscen.Config{})
			if err != nil {
				t.Fatalf("%s seed %d: generate: %v", fam, seed, err)
			}
			// Stagger arrivals over a representative span: the equal-share
			// baseline's makespan (cheap, deterministic, always feasible).
			base, err := sched.Fair.Schedule(in.Platform, in.Apps, nil)
			if err != nil {
				t.Fatalf("%s seed %d: baseline schedule: %v", fam, seed, err)
			}
			for _, policy := range policies {
				for _, maxResident := range []int{0, 2} {
					name := fmt.Sprintf("%s/seed=%d/%s/maxResident=%d", fam, seed, policy, maxResident)
					digest := func(spec string) (string, des.ReplanStats) {
						sp, err := in.OnlineSpec(spec, base.Makespan)
						if err != nil {
							t.Fatalf("%s: spec: %v", name, err)
						}
						sp.MaxResident = maxResident
						sc, err := sp.Build()
						if err != nil {
							t.Fatalf("%s: build: %v", name, err)
						}
						r, err := des.Simulate(sc)
						if err != nil {
							t.Fatalf("%s: simulate %q: %v", name, spec, err)
						}
						return onlineDigest(r), r.Replan
					}
					delta, dstats := digest(policy)
					full, fstats := digest(policy + ":full")
					if delta != full {
						t.Errorf("%s: delta event log differs from full replan", name)
					}
					if fstats.FastPath != 0 {
						t.Errorf("%s: full-replan arm claims fast paths: %+v", name, fstats)
					}
					_ = dstats
				}
			}
		}
	}
}
