package sched

import (
	"context"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/solve"
)

// This file implements the extension the paper's conclusion names as
// future work: "extending the heuristics that account for the speedup
// profile for both processor and cache allocation". The Section 5
// heuristics pick cache shares as if applications were perfectly
// parallel, then fit processors afterwards; here both decisions see the
// true Amdahl profiles.
//
// The key subproblem is solved exactly: for a FIXED processor assignment,
// the cache split minimizing the makespan is computable by binary search.
// With g_i = s_i + (1-s_i)/p_i, application i's completion time is
//
//	T_i(x_i) = g_i·w_i·(1 + f_i·(ls + ll·min(1, d_i/x_i^α)))
//	         = A_i + M_i·min(1, d_i/x_i^α),
//
// where A_i = g_i·w_i·(1 + f_i·ls) and M_i = g_i·w_i·f_i·ll. T_i is
// non-increasing in x_i, so "makespan ≤ K" translates to a minimal
// required share x_i(K) per application, and feasibility Σ_i x_i(K) ≤ 1
// is monotone in K — a textbook bisection.

// requiredShare returns the minimal cache fraction letting the
// application finish by K under A, M, d (see above) with at most maxX
// usable fraction (the footprint cap a_i/Cs), or +Inf when even maxX
// cannot achieve K, or 0 when no cache is needed (miss = 1 already meets
// the target).
func requiredShare(K, A, M, d, alpha, maxX float64) float64 {
	if A+M <= K {
		return 0 // the full-miss cost already meets K
	}
	if K <= A {
		return math.Inf(1) // not achievable even with a zero miss rate
	}
	target := (K - A) / M // needed miss rate, in (0, 1)
	// d/x^α ≤ target  ⇔  x ≥ (d/target)^{1/α}.
	x := math.Pow(d/target, 1/alpha)
	if x > maxX {
		return math.Inf(1)
	}
	return x
}

// OptimalSharesForProcs computes the cache partition minimizing the
// makespan when the processor assignment procs is held fixed. It returns
// the shares and the achieved makespan. The solution is exact up to the
// bisection tolerance (1e-12 relative).
func OptimalSharesForProcs(pl model.Platform, apps []model.Application, procs []float64) ([]float64, float64, error) {
	n := len(apps)
	if n == 0 || len(procs) != n {
		return nil, 0, fmt.Errorf("sched: %d processor counts for %d applications", len(procs), n)
	}
	A := make([]float64, n)
	M := make([]float64, n)
	d := make([]float64, n)
	maxX := make([]float64, n)
	for i, a := range apps {
		if procs[i] <= 0 {
			return nil, 0, fmt.Errorf("sched: application %d has no processors", i)
		}
		g := a.Flops(procs[i])
		A[i] = g * (1 + a.AccessFreq*pl.LatencyS)
		M[i] = g * a.AccessFreq * pl.LatencyL
		d[i] = a.D(pl)
		maxX[i] = a.MaxUsefulFraction(pl)
	}
	need := func(K float64) float64 {
		var sum solve.Kahan
		for i := 0; i < n; i++ {
			x := requiredShare(K, A[i], M[i], d[i], pl.Alpha, maxX[i])
			if math.IsInf(x, 1) {
				return math.Inf(1)
			}
			sum.Add(x)
		}
		return sum.Sum()
	}
	// Bracket: K_hi = worst no-cache time (always feasible with x=0),
	// K_lo = the slowest application granted its whole useful fraction
	// (no schedule with these processors can beat it).
	var hi, lo float64
	for i, a := range apps {
		hi = math.Max(hi, A[i]+M[i])
		lo = math.Max(lo, a.Flops(procs[i])*a.CostPerOp(pl, maxX[i]))
	}
	if need(lo) <= 1 {
		// Even the lower bound is feasible (e.g. a single application).
		shares := sharesAt(lo, A, M, d, pl.Alpha, maxX)
		return shares, lo, nil
	}
	K, err := solve.Bisect(func(k float64) float64 {
		nd := need(k)
		if math.IsInf(nd, 1) {
			return math.Inf(1)
		}
		return nd - 1
	}, lo, hi, 1e-12)
	if err != nil && err != solve.ErrNoConverge {
		return nil, 0, fmt.Errorf("sched: share optimization failed: %w", err)
	}
	// Round K up a hair so the shares are feasible despite float error.
	K *= 1 + 1e-12
	shares := sharesAt(K, A, M, d, pl.Alpha, maxX)
	// Normalize any residual overshoot.
	if s := solve.Sum(shares); s > 1 {
		for i := range shares {
			shares[i] /= s
		}
	}
	return shares, K, nil
}

// sharesAt materializes the minimal-share vector for makespan target K.
func sharesAt(K float64, A, M, d []float64, alpha float64, maxX []float64) []float64 {
	shares := make([]float64, len(A))
	for i := range shares {
		x := requiredShare(K, A[i], M[i], d[i], alpha, maxX[i])
		if math.IsInf(x, 1) {
			x = maxX[i]
		}
		shares[i] = x
	}
	return shares
}

// A structural note on why plain alternation cannot refine the Section 5
// heuristics: any equal-finish schedule that spends the whole processor
// budget and the whole cache is a fixed point of the
// shares-for-processors / processors-for-shares alternation. With every
// completion time equal to K and T_i strictly decreasing in x_i, the
// minimal share achieving K is exactly the current x_i, and K cannot
// drop because Σ x_i(K-ε) > 1. Improvement therefore requires changing
// the *membership* — which applications receive cache at all — a
// combinatorial move. LocalSearch performs exactly that move,
// evaluating every candidate membership under the true Amdahl profiles
// (the Section 5 heuristics choose membership on a perfectly parallel
// proxy, ignoring s_i).

// The hill climb stops after localSearchPasses full sweeps over the
// applications at most (each pass strictly improves the makespan, so
// the bound is only a safety net), and takes a toggle only when it
// improves the makespan by more than the relative localSearchTol.
const (
	localSearchPasses = 64
	localSearchTol    = 1e-12
)

// localSearchMakespan evaluates one candidate membership: Lemma 4 shares
// on the membership, Amdahl equalization, max finish time (read from the
// equalization's costs per operation). It performs the exact arithmetic
// of building the candidate Schedule without materializing it, so the
// hill climb allocates nothing per toggle.
// sc.part must already be reset over (pl, apps) with the solve's
// constants table; only its membership changes.
func localSearchMakespan(sc *scratch, pl model.Platform, apps []model.Application, m []bool) (float64, error) {
	if err := sc.part.SetMembers(m); err != nil {
		return 0, err
	}
	sc.shares = sc.part.SharesInto(sc.shares)
	procs, _, err := sc.eq.equalize(pl, apps, sc.k.D, sc.shares)
	if err != nil {
		return 0, err
	}
	return sc.eq.makespan(apps, procs), nil
}

// localSearchSchedule is LocalSearch, the speedup-profile-aware
// extension the paper's conclusion calls for: starting from the
// DominantMinRatio membership, it hill-climbs over cache-partition
// memberships by single toggles (admit/evict one application),
// evaluating each candidate with the closed-form Lemma 4 shares
// followed by the Amdahl completion-time equalizer — the true profiles,
// not the perfectly parallel proxy. The schedule, written into dst, is
// never worse than DominantMinRatio's and can strictly improve it when
// sequential fractions are heterogeneous. The climb polls ctx before
// every candidate toggle. Candidate memberships are scored by
// localSearchMakespan; only the final winner is materialized as a
// Schedule (bit-identical to scoring, since both run the same
// deterministic arithmetic). The warm start's schedule stays in dst
// while the climb scores candidates, which never touch it.
func localSearchSchedule(ctx context.Context, sc *scratch, pl model.Platform, apps []model.Application, rng *solve.RNG, dst *Schedule) error {
	// The warm start leaves sc.part over (pl, apps) with the solve's
	// constants table, so every candidate below only sets its membership.
	if err := dominantSchedule(sc, pl, apps, DominantMinRatio, rng, dst); err != nil {
		return err
	}
	// Recover the warm membership from the shares.
	members := growBool(sc.members, len(apps))
	sc.members = members
	for i, a := range dst.Assignments {
		members[i] = a.CacheShare > 0
	}
	bestSpan := dst.Makespan
	bestIsWarm := true
	bestM := growBool(sc.bestM, len(apps))
	sc.bestM = bestM
	// Second warm-start candidate: the best ratio-sorted prefix, which
	// scans all n+1 nested memberships the dominance theory singles out.
	if err := core.BestRatioPrefixInto(&sc.prefix, pl, apps, &sc.k); err == nil {
		// The prefix partition already holds the candidate membership, so
		// score its shares directly.
		sc.prefM = sc.prefix.MembersInto(sc.prefM)
		prefM := sc.prefM
		if span, err := localSearchMakespan(sc, pl, apps, prefM); err == nil && span < bestSpan {
			bestSpan = span
			bestIsWarm = false
			copy(members, prefM)
			copy(bestM, prefM)
		}
	}
	for pass := 0; pass < localSearchPasses; pass++ {
		improved := false
		for i := range apps {
			// The climb is the only unbounded-iteration loop in the
			// package; poll the context per candidate toggle so
			// cancellation returns within one equalizer solve.
			if err := ctx.Err(); err != nil {
				return err
			}
			members[i] = !members[i]
			span, err := localSearchMakespan(sc, pl, apps, members)
			if err != nil {
				// An invalid toggle (e.g. numerical corner) is simply
				// not taken.
				members[i] = !members[i]
				continue
			}
			if span < bestSpan*(1-localSearchTol) {
				bestSpan = span
				bestIsWarm = false
				copy(bestM, members)
				improved = true
			} else {
				members[i] = !members[i] // revert
			}
		}
		if !improved {
			break
		}
	}
	if bestIsWarm {
		return nil
	}
	if err := sc.part.SetMembers(bestM); err != nil {
		return err
	}
	sc.shares = sc.part.SharesInto(sc.shares)
	return sharesScheduleWith(sc, pl, apps, sc.shares, dst)
}
