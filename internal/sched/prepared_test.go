package sched_test

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/genscen"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/solve"
)

// preparedSeeds are the genscen seeds of the bit-identity tests: every
// family at each seed, so instances with s_i = 0 (cache-bound,
// zero-work), with s_i ≠ 0 and with footprint-capped shares all occur.
const preparedSeeds = 16

// sameBits reports whether two schedules agree bit for bit.
func sameBits(a, b *sched.Schedule) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Sequential != b.Sequential || len(a.Assignments) != len(b.Assignments) ||
		math.Float64bits(a.Makespan) != math.Float64bits(b.Makespan) {
		return false
	}
	for i, x := range a.Assignments {
		y := b.Assignments[i]
		if math.Float64bits(x.Processors) != math.Float64bits(y.Processors) ||
			math.Float64bits(x.CacheShare) != math.Float64bits(y.CacheShare) {
			return false
		}
	}
	return true
}

// recomputedMakespan is a schedule's makespan from the model alone:
// max_i Exe_i(p_i, x_i) for a concurrent schedule, the Kahan sum of
// the execution times for a sequential one.
func recomputedMakespan(pl model.Platform, apps []model.Application, s *sched.Schedule) float64 {
	var m float64
	var sum solve.Kahan
	for i, a := range apps {
		e := a.Exe(pl, s.Assignments[i].Processors, s.Assignments[i].CacheShare)
		m = math.Max(m, e)
		sum.Add(e)
	}
	if s.Sequential {
		return sum.Sum()
	}
	return m
}

// TestPreparedMatchesSchedule checks the prepared path against the
// one-call API: one Prepared serves every extended heuristic, in
// presentation order and in an order that starts with the heuristics
// reading d_i alone (so the constants table is completed at different
// points of the race), and each schedule must
// equal Heuristic.Schedule's bit for bit, randomized heuristics at
// several seeds. Every schedule's Makespan must also equal the model's
// max_i Exe_i(p_i, x_i) bit for bit, and on instances with all s_i = 0
// every equalized schedule's processors must be ProcessorsLemma2's.
func TestPreparedMatchesSchedule(t *testing.T) {
	ctx := context.Background()
	// The second order runs the heuristics that read d_i alone first, so
	// the table is completed in the middle of the race, then the rest in
	// reverse.
	dOnly := []sched.Heuristic{sched.SharedCache, sched.AllProcCache, sched.Fair, sched.ZeroCache}
	reordered := slices.Clone(dOnly)
	for i := len(sched.ExtendedHeuristics) - 1; i >= 0; i-- {
		if h := sched.ExtendedHeuristics[i]; !slices.Contains(dOnly, h) {
			reordered = append(reordered, h)
		}
	}
	var seqZero, seqNonZero, capped int
	for _, f := range genscen.Families {
		for seed := uint64(1); seed <= preparedSeeds; seed++ {
			in, err := genscen.Generate(f, seed, genscen.Config{})
			if err != nil {
				t.Fatal(err)
			}
			pl, apps := in.Platform, in.Apps
			allSeqZero := true
			for _, a := range apps {
				allSeqZero = allSeqZero && a.SeqFraction == 0
			}
			if allSeqZero {
				seqZero++
			} else {
				seqNonZero++
			}
			for oi, order := range [][]sched.Heuristic{sched.ExtendedHeuristics, reordered} {
				prep, err := sched.Prepare(pl, apps)
				if err != nil {
					t.Fatal(err)
				}
				for _, h := range order {
					for rs := uint64(0); rs < 3; rs++ {
						if rs > 0 && !h.Randomized() {
							break
						}
						name := fmt.Sprintf("%s/seed=%d/order=%d/%v/rng=%d", f, seed, oi, h, rs)
						want, werr := h.Schedule(pl, apps, solve.NewRNG(seed*1000+rs))
						got, gerr := h.SchedulePrepared(ctx, &prep, solve.NewRNG(seed*1000+rs))
						if (werr == nil) != (gerr == nil) || (werr != nil && werr.Error() != gerr.Error()) {
							t.Fatalf("%s: error %v, want %v", name, gerr, werr)
						}
						if werr != nil {
							continue
						}
						if !sameBits(got, want) {
							t.Fatalf("%s: prepared schedule %+v, want %+v", name, got, want)
						}
						if m := recomputedMakespan(pl, apps, got); math.Float64bits(m) != math.Float64bits(got.Makespan) {
							t.Errorf("%s: makespan %v, model gives %v", name, got.Makespan, m)
						}
						for i, a := range apps {
							if a.Footprint > 0 && got.Assignments[i].CacheShare > a.Footprint/pl.CacheSize {
								capped++
							}
						}
						if allSeqZero && h != sched.Fair && h != sched.AllProcCache {
							shares := make([]float64, len(apps))
							for i, asg := range got.Assignments {
								shares[i] = asg.CacheShare
							}
							procs, _ := sched.ProcessorsLemma2(pl, apps, shares)
							for i, p := range procs {
								if math.Float64bits(p) != math.Float64bits(got.Assignments[i].Processors) {
									t.Errorf("%s: app %d has %v processors, Lemma 2 gives %v", name, i, got.Assignments[i].Processors, p)
								}
							}
						}
					}
				}
				prep.Release()
			}
		}
	}
	if seqZero == 0 || seqNonZero == 0 || capped == 0 {
		t.Fatalf("coverage: %d instances with all s_i = 0, %d with some s_i ≠ 0, %d footprint-capped shares; want each > 0",
			seqZero, seqNonZero, capped)
	}
}

// TestEqualizeLemma2BitIdentical: with every s_i = 0 the equalizer
// takes Lemma 2's sequential times as its c_i = w_i·CostPerOp(x_i),
// which is exact because Flops(1) = w_i; its processors and makespan
// must equal ProcessorsLemma2's, which evaluates Exe_i(1, x_i), bit for
// bit on every share vector.
func TestEqualizeLemma2BitIdentical(t *testing.T) {
	rng := solve.NewRNG(5)
	for _, f := range []genscen.Family{genscen.CacheBound, genscen.ZeroWork} {
		for seed := uint64(1); seed <= preparedSeeds; seed++ {
			in, err := genscen.Generate(f, seed, genscen.Config{})
			if err != nil {
				t.Fatal(err)
			}
			shares := make([]float64, len(in.Apps))
			for trial := 0; trial < 8; trial++ {
				for i := range shares {
					shares[i] = rng.Float64() / float64(len(shares))
				}
				procs, K, err := sched.EqualizeAmdahl(in.Platform, in.Apps, shares)
				if err != nil {
					t.Fatal(err)
				}
				wantProcs, wantK := sched.ProcessorsLemma2(in.Platform, in.Apps, shares)
				if math.Float64bits(K) != math.Float64bits(wantK) {
					t.Errorf("%s seed %d: K %v, Lemma 2 gives %v", f, seed, K, wantK)
				}
				for i := range procs {
					if math.Float64bits(procs[i]) != math.Float64bits(wantProcs[i]) {
						t.Errorf("%s seed %d: procs[%d] %v, Lemma 2 gives %v", f, seed, i, procs[i], wantProcs[i])
					}
				}
			}
		}
	}
}

// TestExeCostZeroProcessors: a lane with no processors never finishes,
// whichever form computes its completion time.
func TestExeCostZeroProcessors(t *testing.T) {
	pl := model.TaihuLight()
	a := model.Application{Work: 1e9, SeqFraction: 0.1, AccessFreq: 0.5, RefMissRate: 1e-3, RefCacheSize: 40e6}
	cost := a.CostPerOp(pl, 0.25)
	for _, p := range []float64{0, math.Copysign(0, -1), -1} {
		if e := a.ExeCost(p, cost); !math.IsInf(e, 1) {
			t.Errorf("ExeCost(%v) = %v, want +Inf", p, e)
		}
		if e := a.Exe(pl, p, 0.25); !math.IsInf(e, 1) {
			t.Errorf("Exe(%v) = %v, want +Inf", p, e)
		}
	}
	if e, want := a.ExeCost(3, cost), a.Exe(pl, 3, 0.25); math.Float64bits(e) != math.Float64bits(want) {
		t.Errorf("ExeCost(3) = %v, Exe gives %v", e, want)
	}
}
