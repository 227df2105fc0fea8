package sched

import (
	"fmt"
	"math"

	"repro/internal/model"
	"repro/internal/solve"
)

// equalizeTol is the relative bisection tolerance on the makespan K.
const equalizeTol = 1e-12

// equalizer is the reusable state of the completion-time equalizer: the
// per-application cost per operation and sequential-time coefficients,
// the output processor vector, and — crucially — the bisection
// objective as a persistent closure. The closure reads the equalizer's
// fields instead of capturing per-call locals, so it is allocated once
// per pooled scratch and every subsequent equalization is
// allocation-free.
//
// The cost column is the only place an equalization evaluates Eq. 2's
// power law: Lemma 2's sequential times are the c_i themselves, and
// makespan reads each completion time from it, so a share vector costs
// one math.Pow per application.
type equalizer struct {
	apps   []model.Application
	cost   []float64 // CostPerOp(x_i) at the last equalized share vector
	c      []float64 // c_i = w_i · CostPerOp(x_i)
	procs  []float64 // output processor vector (scratch-owned)
	demand func(float64) float64
}

// demandAt evaluates Σ_i (1-s_i)/(K/c_i - s_i), the processor demand of
// makespan K, +Inf when K is at or below some application's floor.
func (eq *equalizer) demandAt(K float64) float64 {
	var sum solve.Kahan
	for i, a := range eq.apps {
		s := a.SeqFraction
		den := K/eq.c[i] - s
		if den <= 0 {
			return math.Inf(1)
		}
		sum.Add((1 - s) / den)
	}
	return sum.Sum()
}

// demandFn returns the persistent bisection objective, creating it on
// first use (one allocation per equalizer lifetime).
func (eq *equalizer) demandFn() func(float64) float64 {
	if eq.demand == nil {
		eq.demand = eq.demandAt
	}
	return eq.demand
}

// lemma2 assigns processors per Lemma 2 for perfectly parallel
// applications from their sequential times seq into the equalizer's
// processor vector.
func (eq *equalizer) lemma2(pl model.Platform, seq []float64) ([]float64, float64) {
	var total solve.Kahan
	for _, t := range seq {
		total.Add(t)
	}
	sum := total.Sum()
	procs := growF64(eq.procs, len(seq))
	eq.procs = procs
	if sum == 0 {
		for i := range procs {
			procs[i] = 0
		}
		return procs, 0
	}
	for i := range procs {
		procs[i] = pl.Processors * seq[i] / sum
	}
	return procs, sum / pl.Processors
}

// equalize finds the common completion time K and processor counts p_i
// for general Amdahl applications with fixed cache shares (Section 5).
// d holds each application's d_i, read from the solve's constants table.
// The returned processor slice is owned by the equalizer and valid
// until its next call; callers copy what they keep.
func (eq *equalizer) equalize(pl model.Platform, apps []model.Application, d, shares []float64) ([]float64, float64, error) {
	n := len(apps)
	if n == 0 {
		return nil, 0, ErrInfeasible
	}
	eq.cost = growF64(eq.cost, n)
	eq.c = growF64(eq.c, n)
	allSeqZero := true
	for i, a := range apps {
		eq.cost[i] = a.CostPerOpD(pl, d[i], shares[i])
		eq.c[i] = a.Work * eq.cost[i]
		if a.SeqFraction != 0 {
			allSeqZero = false
		}
	}
	if allSeqZero {
		// Exe_i(1, x_i) = Flops(1)·cost_i, and Flops(1) is exactly w_i
		// when s_i = 0, so Lemma 2's sequential times are the c_i.
		procs, K := eq.lemma2(pl, eq.c)
		return procs, K, nil
	}

	eq.apps = apps
	demand := eq.demandFn()

	var lo, hi float64
	for i, a := range apps {
		lo = math.Max(lo, eq.c[i]*(a.SeqFraction+(1-a.SeqFraction)/pl.Processors))
		hi = math.Max(hi, eq.c[i])
	}
	if demand(hi) > pl.Processors {
		// More total single-processor demand than processors: stretch
		// the bracket until feasible (happens when n > p).
		for demand(hi) > pl.Processors {
			hi *= 2
			if math.IsInf(hi, 1) {
				return nil, 0, fmt.Errorf("sched: equalizer bracket diverged")
			}
		}
	}
	if lo >= hi {
		hi = lo * (1 + 1e-9)
	}
	K, err := solve.BisectDecreasing(demand, pl.Processors, lo, hi, equalizeTol)
	if err != nil && err != solve.ErrNoConverge {
		// demand(lo) may already be below p when the bracket's lower
		// end is loose; the makespan is then lo itself (the slowest
		// application pinned at full machine speed).
		if demand(lo) <= pl.Processors {
			K = lo
		} else {
			return nil, 0, fmt.Errorf("sched: equalizer failed: %w", err)
		}
	}
	procs := growF64(eq.procs, n)
	eq.procs = procs
	for i, a := range apps {
		s := a.SeqFraction
		den := K/eq.c[i] - s
		if den <= 0 {
			procs[i] = pl.Processors // degenerate: app pinned at K ≈ its own floor
			continue
		}
		procs[i] = (1 - s) / den
	}
	rescale(procs, pl.Processors)
	return procs, K, nil
}

// makespan returns max_i Exe_i(p_i, x_i) at the share vector of the
// last equalize call, each completion time ExeD's own product
// Flops(p_i)·cost_i (+Inf at p_i <= 0), so it is bit-identical to
// maxFinish over the same processors and shares.
func (eq *equalizer) makespan(apps []model.Application, procs []float64) float64 {
	var m float64
	for i, a := range apps {
		m = math.Max(m, a.ExeCost(procs[i], eq.cost[i]))
	}
	return m
}

// ProcessorsLemma2 assigns processors per Lemma 2 for perfectly parallel
// applications: p_i = p · Exe^seq_i(x_i) / Σ_j Exe^seq_j(x_j), which makes
// all applications finish simultaneously at (Σ_j Exe^seq_j(x_j))/p.
func ProcessorsLemma2(pl model.Platform, apps []model.Application, shares []float64) ([]float64, float64) {
	d := dOf(pl, apps)
	seq := make([]float64, len(apps))
	for i, a := range apps {
		seq[i] = a.ExeD(pl, d[i], 1, shares[i])
	}
	var eq equalizer
	return eq.lemma2(pl, seq)
}

// EqualizeAmdahl finds the common completion time K and processor counts
// p_i for general Amdahl applications with fixed cache shares (Section
// 5). Each application's execution time is (s_i + (1-s_i)/p_i)·c_i with
// c_i = w_i·CostPerOp(x_i); setting them all equal to K and using the
// full budget Σp_i = p gives
//
//	Σ_i (1-s_i) / (K/c_i - s_i) = p,
//
// whose left side is strictly decreasing in K, solved by bisection.
// The bracket is [K_lo, K_hi] with K_lo the finish time of the slowest
// app granted all p processors (no schedule can beat it) and K_hi the
// largest single-processor time (p_i = 1 is always feasible for n ≤ p).
//
// This is the allocating convenience wrapper; the heuristics run the
// same arithmetic through their pooled scratch equalizer.
func EqualizeAmdahl(pl model.Platform, apps []model.Application, shares []float64) ([]float64, float64, error) {
	var eq equalizer
	procs, K, err := eq.equalize(pl, apps, dOf(pl, apps), shares)
	if err != nil {
		return nil, 0, err
	}
	out := make([]float64, len(procs))
	copy(out, procs)
	return out, K, nil
}

// dOf returns every application's d_i, the only constant the equalizer
// reads, for the entry points that run without a pooled scratch.
func dOf(pl model.Platform, apps []model.Application) []float64 {
	var k model.Constants
	k.FillD(pl, apps)
	return k.D
}

// rescale scales procs down proportionally if their sum exceeds the
// budget (bisection slack), leaving feasibility exact.
func rescale(procs []float64, budget float64) {
	sum := solve.Sum(procs)
	if sum > budget {
		f := budget / sum
		for i := range procs {
			procs[i] *= f
		}
	}
}
