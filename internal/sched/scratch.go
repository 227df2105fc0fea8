package sched

import (
	"sync"

	"repro/internal/core"
	"repro/internal/model"
)

// scratch is the per-evaluation workspace of one Heuristic.Schedule
// call. Every buffer the heuristics previously allocated per call —
// the model constants table, partition state, cache-share vectors,
// equalizer coefficients — lives here and is recycled through a
// sync.Pool, so the steady-state hot path only allocates the Schedule
// it returns. Buffers are fully overwritten before use; pooling cannot
// change results.
type scratch struct {
	k       model.Constants // the solve's d_i, thresholds and weights
	members []bool          // random-membership / warm-start vector
	bestM   []bool          // local search's best membership snapshot
	shares  []float64       // cache-share vector under evaluation
	occ     []float64       // shared-cache occupancy vector
	dampP   []float64       // shared-cache damped processor state
	part    core.Partition  // reusable partition for the builders
	prefix  core.Partition  // reusable partition for the prefix scan
	eq      equalizer       // equalizer state incl. persistent bisect objective
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// getScratch takes a scratch from the pool and fills its constants
// table for heuristic h on (pl, apps): the one place a solve computes
// d_i and the quantities derived from it. Only heuristics that build a
// core.Partition read the thresholds and weights, so the others get
// the d_i column alone.
func getScratch(h Heuristic, pl model.Platform, apps []model.Application) *scratch {
	sc := scratchPool.Get().(*scratch)
	switch h {
	case Fair, ZeroCache, AllProcCache, SharedCache:
		sc.k.FillD(pl, apps)
	default:
		sc.k.Fill(pl, apps)
	}
	return sc
}

func putScratch(s *scratch) { scratchPool.Put(s) }

// growF64 returns a slice of length n, reusing s's backing array when
// large enough.
func growF64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// growBool is growF64 for booleans.
func growBool(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}
