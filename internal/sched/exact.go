package sched

import (
	"math"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/model"
)

// maxExactApps bounds the exponential subset enumeration of ExactSubset.
const maxExactApps = 24

// ExactSubset finds the optimal cache subset IC for perfectly parallel
// applications by enumerating all 2^n partitions, applying the
// closed-form shares of Lemma 4 to each and keeping the best *valid*
// solution (every allotted share must exceed the useless threshold
// d_i^{1/α}, per Eq. 3; partitions violating it are evaluated with the
// violating apps clamped to the no-benefit regime, which the Exe model
// already encodes via the min(1, ·)). It is the ground truth against
// which the heuristics are validated for small n.
//
// It returns the best schedule and the chosen membership. n must be at
// most 24 to bound the enumeration.
func ExactSubset(pl model.Platform, apps []model.Application) (*Schedule, []bool, error) {
	if err := model.ValidateAll(pl, apps); err != nil {
		return nil, nil, err
	}
	n := len(apps)
	if n > maxExactApps {
		return nil, nil, errTooManyApps(n)
	}
	// The 2^n memberships are scanned in parallel: each worker owns a
	// contiguous mask range and tracks its local best; the reduction
	// breaks ties toward the smaller mask so the result is identical to
	// a sequential ascending scan.
	type best struct {
		k       float64
		mask    uint64
		shares  []float64
		members []bool
	}
	total := uint64(1) << n
	workers := uint64(runtime.GOMAXPROCS(0))
	if workers > total {
		workers = total
	}
	chunk := (total + workers - 1) / workers
	// One constants table serves every worker: it is only read.
	var consts model.Constants
	consts.Fill(pl, apps)
	results := make([]best, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := uint64(0); w < workers; w++ {
		wg.Add(1)
		go func(w uint64) {
			defer wg.Done()
			lo, hi := w*chunk, (w+1)*chunk
			if hi > total {
				hi = total
			}
			local := best{k: math.Inf(1)}
			members := make([]bool, n)
			var part core.Partition
			if err := part.ResetWith(pl, apps, &consts, nil); err != nil {
				errs[w] = err
				return
			}
			var eq equalizer
			for mask := lo; mask < hi; mask++ {
				for i := 0; i < n; i++ {
					members[i] = mask&(1<<uint(i)) != 0
				}
				if err := part.SetMembers(members); err != nil {
					errs[w] = err
					return
				}
				shares := part.Shares()
				K := analyticMakespan(&eq, pl, apps, consts.D, shares)
				if K < local.k {
					local.k = K
					local.mask = mask
					local.shares = shares
					local.members = append([]bool(nil), members...)
				}
			}
			results[w] = local
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	win := best{k: math.Inf(1)}
	for _, r := range results {
		if r.shares == nil {
			continue
		}
		if r.k < win.k || (r.k == win.k && r.mask < win.mask) {
			win = r
		}
	}
	var eq equalizer
	s := new(Schedule)
	if err := sharesScheduleEq(&eq, pl, apps, consts.D, win.shares, s); err != nil {
		return nil, nil, err
	}
	return s, win.members, nil
}

// analyticMakespan evaluates Lemma 3's objective Σ_i Exe_i(1, x_i)/p for
// perfectly parallel apps; for Amdahl apps it falls back to the
// equalizer eq. d holds each application's d_i.
func analyticMakespan(eq *equalizer, pl model.Platform, apps []model.Application, d, shares []float64) float64 {
	allZero := true
	for _, a := range apps {
		if a.SeqFraction != 0 {
			allZero = false
			break
		}
	}
	if allZero {
		var sum float64
		for i, a := range apps {
			sum += a.ExeD(pl, d[i], 1, shares[i])
		}
		return sum / pl.Processors
	}
	_, K, err := eq.equalize(pl, apps, d, shares)
	if err != nil {
		return math.Inf(1)
	}
	return K
}

type errTooManyApps int

func (e errTooManyApps) Error() string {
	return "sched: exact enumeration limited to 24 applications"
}
