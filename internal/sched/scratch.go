package sched

import (
	"sync"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/solve"
)

// scratch is the workspace of the evaluations on one Prepared input.
// Every buffer the heuristics previously allocated per call —
// the model constants table, partition state, cache-share vectors,
// equalizer coefficients — lives here and is recycled through a
// sync.Pool, so the steady-state hot path only allocates the Schedule
// it returns, and nothing when the caller supplies it (ScheduleInto). Buffers are fully overwritten before use; pooling cannot
// change results.
type scratch struct {
	k       model.Constants // the solve's d_i, thresholds and weights
	members []bool          // random-membership / warm-start vector
	bestM   []bool          // local search's best membership snapshot
	prefM   []bool          // local search's prefix membership snapshot
	shares  []float64       // cache-share vector under evaluation
	occ     []float64       // shared-cache occupancy vector
	dampP   []float64       // shared-cache damped processor state
	part    core.Partition  // reusable partition for the builders
	prefix  core.Partition  // reusable partition for the prefix scan
	eq      equalizer       // equalizer state incl. persistent bisect objective
	rng     *solve.RNG      // the stream random draws from (see choice)
	random  core.Choice     // persistent Random choice over rng
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// Prepared is one (platform, applications) pair made ready for any
// number of heuristic evaluations: validated once by Prepare, and
// holding one pooled scratch whose constants table is computed once,
// on the first evaluation, for every heuristic that follows. A race
// over the portfolio therefore validates its input once and computes
// each d_i once instead of once per heuristic, and a race whose
// evaluations never run takes no scratch at all.
//
// A Prepared is used by one goroutine at a time, reads the caller's
// applications slice until Release, and must be released when the
// caller is done with it. Its zero value is not prepared.
type Prepared struct {
	pl   model.Platform
	apps []model.Application
	sc   *scratch // nil until the first evaluation
	full bool     // sc.k holds the threshold and weight columns too
}

// Prepare validates (pl, apps) for scheduling; a validation failure is
// the error every heuristic would return on this input.
func Prepare(pl model.Platform, apps []model.Application) (Prepared, error) {
	if err := model.ValidateAll(pl, apps); err != nil {
		return Prepared{}, err
	}
	return Prepared{pl: pl, apps: apps}, nil
}

// Release returns the input's scratch to the pool.
func (p *Prepared) Release() {
	if p.sc != nil {
		scratchPool.Put(p.sc)
		p.sc = nil
	}
}

// scratchFor returns the input's scratch with the constants table
// heuristic h reads: the d_i column on first use, and the threshold and
// weight columns too, once, for the heuristics that build a
// core.Partition. The others read d_i alone, so a lone Fair, ZeroCache,
// AllProcCache or SharedCache evaluation never pays for the two power
// laws per application the other columns cost. Every column holds the
// bits a fresh table would, so the order heuristics run in cannot
// change a schedule.
func (p *Prepared) scratchFor(h Heuristic) *scratch {
	if p.sc == nil {
		p.sc = scratchPool.Get().(*scratch)
		p.sc.k.FillD(p.pl, p.apps)
	}
	switch h {
	case Fair, ZeroCache, AllProcCache, SharedCache:
	default:
		if !p.full {
			p.sc.k.Complete(p.pl, p.apps)
			p.full = true
		}
	}
	return p.sc
}

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
