package sched

import (
	"math"

	"repro/internal/model"
	"repro/internal/solve"
)

// This file models the baseline the whole paper argues against:
// co-scheduling WITHOUT cache partitioning. When the LLC is shared
// unpartitioned, co-running applications interfere; under LRU each
// application ends up occupying a cache fraction roughly proportional to
// its aggregate access rate (the fractional-occupancy approximation used
// in shared-cache modeling since Qureshi & Patt's utility studies).
// We approximate application i's occupancy as
//
//	x_i^eff = p_i·f_i / Σ_j p_j·f_j,
//
// i.e. proportional to the access pressure it generates (threads ×
// accesses per operation), and evaluate the usual Exe model at that
// occupancy. Because the occupancy depends on the processor assignment
// and the equalized processors depend on the occupancies, the schedule is
// a fixed point, found by damped iteration.
//
// Comparing SharedCache against the dominant-partition heuristics
// isolates the value of partitioning itself (Cache Allocation
// Technology), beyond the value of co-scheduling.

// sharedCacheIterations bounds the fixed-point loop; the damped iteration
// converges geometrically in practice and 200 rounds is far beyond any
// observed need.
const sharedCacheIterations = 200

// sharedCacheSchedule is SharedCache: it co-schedules the applications
// on an unpartitioned LLC. Processors are assigned by the
// completion-time equalizer, cache occupancies follow the
// access-pressure approximation above, and the two are iterated to a
// fixed point; the schedule, written into dst, stores the equilibrium
// occupancies in the CacheShare fields (they sum to 1). Every equalizer
// pass reuses the same coefficient and processor buffers and reads d_i
// from the scratch's constants table.
func sharedCacheSchedule(sc *scratch, pl model.Platform, apps []model.Application, dst *Schedule) error {
	n := len(apps)
	procs := growF64(sc.dampP, n)
	sc.dampP = procs
	for i := range procs {
		procs[i] = pl.Processors / float64(n)
	}
	occ := growF64(sc.occ, n)
	sc.occ = occ
	for iter := 0; iter < sharedCacheIterations; iter++ {
		occupancies(apps, procs, occ)
		next, _, err := sc.eq.equalize(pl, apps, sc.k.D, occ)
		if err != nil {
			return err
		}
		var delta float64
		for i := range procs {
			delta = math.Max(delta, math.Abs(next[i]-procs[i]))
			// Damping stabilizes the alternation on workloads where
			// occupancy feedback is strong.
			procs[i] = 0.5*procs[i] + 0.5*next[i]
		}
		if delta < 1e-9*pl.Processors {
			break
		}
	}
	occupancies(apps, procs, occ)
	// Final consistent pass: equalize once more at the settled
	// occupancies so finish times are exactly equal. The makespan reads
	// the pass's costs per operation at those occupancies.
	final, _, err := sc.eq.equalize(pl, apps, sc.k.D, occ)
	if err != nil {
		return err
	}
	asg := dst.resize(n)
	for i := range asg {
		asg[i] = Assignment{Processors: final[i], CacheShare: occ[i]}
	}
	dst.Makespan = sc.eq.makespan(apps, final)
	return nil
}

// occupancies fills occ with the access-pressure-proportional cache
// occupancy of each application. With zero total pressure (all f_i = 0)
// the cache is irrelevant and occupancies are left at zero.
func occupancies(apps []model.Application, procs []float64, occ []float64) {
	var total solve.Kahan
	for i, a := range apps {
		total.Add(procs[i] * a.AccessFreq)
	}
	t := total.Sum()
	for i, a := range apps {
		if t > 0 {
			occ[i] = procs[i] * a.AccessFreq / t
		} else {
			occ[i] = 0
		}
	}
}

// PartitioningGain returns the relative makespan advantage of the best
// partitioned co-schedule (DominantMinRatio) over the unpartitioned
// shared-cache equilibrium on the same inputs: 1 − partitioned/shared.
// Positive values quantify what Cache Allocation Technology buys.
func PartitioningGain(pl model.Platform, apps []model.Application) (float64, error) {
	part, err := DominantMinRatio.Schedule(pl, apps, nil)
	if err != nil {
		return 0, err
	}
	shared, err := SharedCache.Schedule(pl, apps, nil)
	if err != nil {
		return 0, err
	}
	return 1 - part.Makespan/shared.Makespan, nil
}
